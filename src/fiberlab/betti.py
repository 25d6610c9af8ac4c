"""Multigraded Betti numbers via homology of upper Koszul complexes.

For a monomial ideal the only multidegrees carrying Betti numbers are the
joins (componentwise maxima) of generator degrees.  The engine closes the
generator degrees under join, then computes reduced simplicial homology of
the upper Koszul complex at every lattice point it keeps, over Q
(fraction-free integer elimination) or GF(p).

The complex at a point b is a union of full simplices: a squarefree tau
below b is a face iff x^(b-tau) lies in the ideal, which happens iff tau
avoids the "tight set" {v : g_v = b_v} of some generator g dividing x^b.
Two consequences keep most points away from per-point work:

* Survivors only.  When some divisor g has g_v < b_v on all of supp(b),
  its tight set on supp(b) is empty and the complex is the full simplex,
  which has no homology.  These contractible points are most of a large
  lattice, and they form an up-set, so the closure never builds on them:
  it joins survivors with generators, rank by rank, and drops each round's
  contractible candidates with one vectorised divisibility test.  Where the
  box below the generators' column maxima fits in the ``lattice`` cap and
  is small next to the generator pairs (``_DENSE_CELLS_PER_PAIR``), it
  counts the generators below every point of the box instead, which
  decides both lattice membership and contractibility with no join.  Every
  point the rounds hold lies in that box, so they could not have been
  refused there; a box past the cap keeps the rounds and their refusal,
  message and count included.  The walk sees only the survivors.
* Antichain key.  A face that avoids a tight set also avoids every subset
  of it, so each surviving point keeps only its inclusion-minimal tight
  sets.  They determine the complex up to relabelling of supp(b) by
  position, and with the support size m they key the homology cache.  The
  complex's homology depends only on that key and the field, so the cache
  is one per process and field, shared by every table and verdict the process
  computes, and each distinct complex is computed once until the cache
  fills (``_CACHE_ENTRIES``) and is emptied.  Every walk runs in the
  calling process, so every table reads and fills that cache.  A principal
  ideal is free: its table is beta_0 at the generator, with no closure or
  walk.

The walk meets the points largest support first, in chunks, and works on
a chunk in bulk up to its complexes: the inclusion-minimal tight masks of
every point, and one key row per point, whose distinct rows are the
chunk's complexes.  The masks come from the dividing (point, generator)
pairs, by packed-word tests.  But a closure that counted over its box
leaves the box's indicator of the ideal with the table, and there a point
b of support size m reads its complex off the box: its faces tau by 2^m
lookups of x^(b - tau), its facets by m shifted comparisons, and its
minimal tight sets as the facets' complements.  A point takes the box
where its 2^m lookups undercut the k divisor tests
(``_BOX_LOOKUPS_PER_GEN``).  Python steps once per distinct complex of a
chunk, for its cache key, and once per Betti entry, which leaves the walk
sorted by (i, b).  It computes the uncached complexes together, grouped
by support size m, largest m first, under the one cache rule of
``_cached``.  One
(complexes x 2^m) boolean array holds a group's faces.  A complex's
boundary from k- to (k-1)-faces is the full simplex's, restricted to the
complex's own faces: every column keeps all its entries, since a complex
holds the facets of its faces.  The walk only computes where those
entries go: ``linalg.rank_inputs``, which the Koszul engine uses too, lays
out the boundaries of one k for ``rank_mod_p`` or ``rank_exact``, largest
k first.  A fixed cell budget splits the face arrays and the stacks.  Large supports carry the large
complexes, so a GF(p) boundary over the dense limit is met, and refused,
before ranks are spent on the many small ones.

Over Q the boundaries of a large batch are ranked over GF(2^31 - 1)
first.  By the universal coefficient theorem the two homologies differ
only where the GF(p) one is nonzero in two adjacent degrees, so
``rank_exact`` ranks only the boundaries between such degrees, and those
whose GF(p) matrix would pass the dense limit, which a walk over Q never
raises.

Boundary ranks are computed only for complexes that are not cones (a
vertex in no minimal tight set lies in every facet).  The closure, its
contractibility tests and the walk's divisibility tests run on the packed
exponent rows of ``ideals`` (int64 words, deduplicated by sorting).  A
table packs its generators once, on one packing (``_PackedGens``): the
column maxima of the generators bound every lattice point, so the closure
and the walk share it, and the closure's survivors reach the walk as
packed words, unpacked once for their exponents and never packed again.
The same packing gives the Python-int branches below their layout,
``ideals._IntLayout``, built at first use.

Tiny inputs, which the fiber-product claim checks build by the hundred,
cost NumPy's fixed per-call overhead more than arithmetic.  So a closure
of at most ``_SMALL_CLOSURE_CELLS`` generator cells, and a walk of at most
``_SMALL_WALK_PAIRS`` (point, generator) pairs, whose exponents pack into
one word, run the same algorithm on Python ints that hold the same packed
words (``_small_closure``, ``_small_walk``), on the layout that the
Python-int branches of ``ideals`` use too (``_IntLayout``).  The branch
returns exactly what the array branch returns.  On one word a layout key
is the packed word, so the ints' numeric order is the packed-key order:
the closure gives the same array in the same order, and a cap refuses it
after the same chunk with the same count.  The walk keeps the chunks, the
support-limit check first in each, the cache keys (m, int64 bytes of the
sorted minimal masks) and ``_cached``.  Only the order of one group's
complexes within their batch may differ, which changes no answer.

The same complexes decide Tor-vanishing (``tor_vanishing``): for an
inclusion small <= big, the map Tor_i(small)_b -> Tor_i(big)_b is the map
on H-tilde_(i-1) that K^b(small) <= K^b(big) induces, since the upper
Koszul complex computes Tor naturally in the ideal (Miller-Sturmfels,
Thm 1.34).  At small's Betti points, which the walk gives, both complexes
come from tight masks, and ``_ranks`` ranks the boundaries that decide
the map.  One of them is relative: the boundary of big's faces outside
small, whose columns drop their entries at small's faces.  Whether the map
is nonzero depends only on i, the field and the two complexes' keys, so the
field's cache holds these map verdicts too, keyed (i, m, small's masks'
bytes, big's masks' bytes), through the same ``_cached`` as the complexes:
each distinct map is ranked once per process and field.

When the generating set is, after exact verification, a product of
generating sets over disjoint variable blocks, the table is assembled as
the convolution of the factors' tables (a minimal free resolution of a
tensor product over disjoint variables is the tensor product of minimal
resolutions).  This keeps products such as powers of maximal ideals of
two blocks within reach without ever enumerating the product lattice.
The candidate blocks join the columns whose pairs of values are fewer
than the product of their counts, all pairs counted by one sort.  Most
tables are no product, and most of those are turned away before the sort
by an exact necessary test on value counts (``_no_split``).
Its Betti points count against the ``lattice`` cap for tables and verdicts
alike; only ``tor_vanishing`` builds complexes there, under the 24-variable
limit, which it applies to the largest support that the factors' tables give
(``_largest_support``) before anything is convolved.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .core import Exponents, resolve_characteristic
from .errors import CapError, DomainError
from .ideals import MonomialIdeal, _IntLayout, _Packing, _row_keys, _sorted_unique, _unique_rows
from . import linalg
from .linalg import rank_exact, rank_inputs, rank_mod_p

# points x generators x variables of one chunk of the walk, and points x 2^m of one slice of
# its box lookups at support size m: bounds its pair, lookup and key arrays
_CHUNK_CELLS = 4_000_000
# packed words of the joins one chunk of the closure makes.  The Betti tables of I^2, I^3
# and m*I^2 of the Appendix A ideal peak at 51 MB of RSS with 2^17 words a chunk, and at
# 59 MB with 2^19; m*I^2 closes in 0.17-0.19 s with either
_CLOSURE_WORDS = 1 << 17
# generator cells (generators x variables) up to which a closure on one packed word runs
# on Python ints (``_small_closure``).  The 755 closures of a claim-loop round (seeds 13
# and 17, each input timed in both branches, fastest of 7) took 0.85, 0.71, 0.63-0.64,
# 0.68 and 1.11 times the array branch's time with this at 8, 16, 32, 64 and 128
_SMALL_CLOSURE_CELLS = 32
# box cells per generator pair up to which a closure that is not on Python ints counts
# divisors over its box (``_dense_closure``): a box of at most this times k^2 cells, for k
# generators, and within the lattice cap.  The 260 such closures of one round of
# appendix-lattice, claim-loop and tor-exact (seed 7) have box / k^2 up to 12.5; each timed
# in both paths, fastest of 5, they took 275 ms rank by rank and 57 ms dense.  Of 40
# synthetic ones (powers of maximal ideals, random ideals in 3-6 variables), the dense path
# won on all 21 up to a ratio of 32 and lost on all 19 from 39 on; they took 87.5, 14.5,
# 14.1, 13.9, 14.1 and 38.8 ms with this at 0, 4, 16, 32, 64 and 1,024
_DENSE_CELLS_PER_PAIR = 32
# (point, generator) pairs up to which a walk on one packed word runs on Python ints
# (``_small_walk``).  The round's 755 walks, timed the same way, took 0.76, 0.73,
# 0.72-0.73, 0.75-0.76 and 0.79-0.81 times with this at 100, 300, 750, 2,000 and 4,000
_SMALL_WALK_PAIRS = 750
# box lookups per generator up to which a point of the walk, of support size m, reads its
# tight masks off its closure's box: 2^m <= this times k, for k generators.  Every
# _tight_masks call of a table with a box in one round of appendix-lattice, claim-loop and
# tor-exact (seeds 27 and 31), each timed whole, fastest of 5, took in all, with this at 0,
# 1, 2, 4, 8, 16, 64 and 2^40: appendix-lattice 96-106, 19-20, 16, 14-15, 11.5-12.5,
# 11.4-12.3, 11.6-11.9 and 11.5-12.7 ms; claim-loop 29-30, 20-21, then 18-19 ms at each.
# Random ideals and their powers with a box (7 tables a seed, 9-21 generators in 5-12
# variables) took 1.9-2.1, 2.4-2.5, 2.3-2.6, 2.2-2.7, 2.2-2.7, 2.2-2.5, 2.4-2.9 and
# 2.5-3.0 ms
_BOX_LOOKUPS_PER_GEN = 8
# the field in which the walk ranks a complex over Q first (2^31 - 1, a prime whose
# residues multiply inside int64); not 32003, so the Q and GF(32003) tables stay two
# different computations
_CERTIFYING_PRIME = 2**31 - 1
# faces from which a batch over Q is ranked over GF(_CERTIFYING_PRIME) first; a smaller
# one goes to rank_exact at once.  Batches of 1-32 complexes on 3-8 vertices, certified :
# exact: 4 faces 195 : 118 us, 57 faces 472 : 326 us, 152 faces 788 : 894 us, 276 faces
# 1.15 : 1.54 ms, 2,290 faces 7.3 : 27.5 ms
_CERTIFY_MIN_FACES = 200
# entries one field's cache holds, complexes and Tor-map verdicts together; a chunk of the
# walk, or a homological degree of a verdict, whose new entries would pass it empties the
# cache first.  One process fills 5,274 over GF(32003)
# and 1,071 over Q in scenario appendix-A1, 4,542 and 1,227 in an appendix-lattice round,
# and 56 in a claim-loop round.  An entry takes about 200 bytes plus 8 per minimal tight
# mask of its key (at most 51 masks in those runs), so a full cache takes about
# 16,384 x (200 + 8k) bytes for keys of k masks: 10.0 MB at k = 51
_CACHE_ENTRIES = 1 << 14
# the process's caches, one per characteristic: {(m, minimal masks' bytes): homology dims}
# for complexes, and {(i, m, small's masks' bytes, big's masks' bytes): nonzero} for the
# maps on H-tilde_(i-1) that an inclusion of complexes induces
_CACHES: dict[int, dict[tuple, dict[int, int] | bool]] = {}


# -- lcm lattice -------------------------------------------------------------


class _PackedGens:
    """A table's generators, packed once on the packing that its closure and its walk share.

    The packing of the generators' column maxima holds every point of their
    lcm lattice too.  ``fields``, the packing's layout as Python ints
    (``ideals._IntLayout``), and ``keys``, the words as Python ints, serve
    the Python-int branches, on one word; each is built at first use.
    ``box`` marks the points b of the box below those maxima with x^b in
    the ideal, when the closure counted over that box; the walk reads its
    complexes off it (``_tight_masks``).  Otherwise it is None.
    """

    def __init__(self, packing: _Packing, gens: np.ndarray):
        self.packing, self.gens = packing, gens
        self.words = packing.pack(gens)
        self.box: np.ndarray | None = None  # set by ``_closure``

    @functools.cached_property
    def fields(self) -> _IntLayout:
        return _IntLayout(self.packing.maxexp.tolist())

    @functools.cached_property
    def keys(self) -> list[int]:
        return self.words[:, 0].tolist()


def _closure(table: _PackedGens, cap: int) -> np.ndarray:
    """The non-contractible points of the lcm lattice of ``table``'s generators.

    A point's rank is the least number of generators whose join it is.  The
    contractible points form an up-set, so below a survivor b of rank r + 1
    every partial join is a survivor, and b = p v g for a survivor p of rank
    r and a generator g.  Each round joins the last round's new survivors
    with every generator, in chunks of ``_CLOSURE_WORDS`` words, drops the
    points already held (p v g = p among them, where g divides p), and
    tests the round's distinct candidates against ``_contractible`` once;
    the survivors among them are the next round's.  A minimal join of r
    generators has r variables where one of them alone is largest, so
    there are at most nvars + 1 rounds.

    The generators are minimal, so none is contractible: they are the first
    frontier.  The ``lattice`` cap bounds the distinct points held at once,
    counted after every chunk: the survivors so far and the round's
    candidates.  Returns the survivors' packed words, sorted by packed key,
    which the walk takes as they are.  Generators of at most
    ``_SMALL_CLOSURE_CELLS`` cells on one packed word are closed on Python
    ints (``_small_closure``), with the same result.

    Every point the rounds hold lies in the box of the points below the
    generators' column maxima.  So when the box has at most ``cap`` cells,
    the rounds could never be refused, and when it also has at most
    ``_DENSE_CELLS_PER_PAIR`` cells per generator pair, the survivors are
    read off a count of divisors over the box instead (``_dense_closure``),
    packed and sorted: the same array, with no join and no sort of
    candidates.  The count's indicator of the ideal stays on ``table.box``
    for the walk.  A box past the cap keeps the rounds, and their refusal.
    """
    packing, packed_gens = table.packing, table.words

    def rows(keys: np.ndarray) -> np.ndarray:
        return keys.view(np.int64).reshape(len(keys), packing.nwords)

    step = max(1, _CLOSURE_WORDS // packed_gens.size)
    if packing.nwords == 1 and table.gens.size <= _SMALL_CLOSURE_CELLS:
        held = _small_closure(table.fields, table.keys, step, cap)
        return np.array(held, dtype=np.int64).reshape(-1, 1)
    box = math.prod(e + 1 for e in packing.maxexp.tolist())
    if box <= cap and box <= _DENSE_CELLS_PER_PAIR * len(table.gens) ** 2:
        survivors, table.box = _dense_closure(table.gens, packing.maxexp)
        return rows(np.sort(_row_keys(packing.pack(survivors))))
    held = _sorted_unique(_row_keys(packed_gens))  # a minimal generator is never contractible
    frontier = rows(held)
    while len(frontier):
        pending = []
        count = len(held)
        for lo in range(0, len(frontier), step):
            joins = packing.join(frontier[lo : lo + step, None, :], packed_gens[None])
            keys = _sorted_unique(_row_keys(joins.reshape(-1, packing.nwords)))
            at = np.searchsorted(held, keys).clip(max=len(held) - 1)
            keys = keys[held[at] != keys]
            pending.append(keys)
            count += len(keys)
            if count > cap:  # the chunks may share candidates: count the distinct ones
                pending = [_sorted_unique(np.concatenate(pending))]
                count = len(held) + len(pending[0])
                if count > cap:
                    raise CapError.over("lattice", f"lcm lattice reached {count} points", cap)
        new = _sorted_unique(np.concatenate(pending))
        new = new[~_contractible(rows(new), packing, packed_gens)]
        held = np.sort(np.concatenate([held, new]))
        frontier = rows(new)
    return rows(held)


def _dense_closure(gens: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of ``_closure``'s survivors, found by counting divisors over a box.

    Over the box of the points b <= ``top`` (the generators' column maxima),
    cnt(b) = #{generators g <= b}: a 1 at each generator, summed along
    every axis.  b is the join of the generators below it iff each v with
    b_v > 0 has one of them with g_v = b_v, i.e. iff cnt(b) > 0 and
    cnt(b) > cnt(b - e_v) for every such v; and b != 0 is contractible iff
    cnt(b - 1_supp(b)) > 0.  Returns the rest of the lattice, in the box's
    order, and the indicator cnt > 0 over the box: x^b lies in the ideal.
    """
    shape = tuple(e + 1 for e in top.tolist())
    cnt = np.zeros(shape, dtype=np.min_scalar_type(len(gens)))
    cnt[tuple(gens.T)] = 1
    axes = [axis for axis, size in enumerate(shape) if size > 1]
    for axis in axes:
        np.cumsum(cnt, axis=axis, dtype=cnt.dtype, out=cnt)
    kept = cnt > 0
    below = kept.copy()  # becomes cnt(b - 1_supp(b)) > 0
    for axis in axes:
        upper = (slice(None),) * axis + (slice(1, None),)
        lower = (slice(None),) * axis + (slice(None, -1),)
        kept[upper] &= cnt[upper] > cnt[lower]
        below[upper] = below[lower]
    below.flat[0] = False  # the point 0 is no full simplex
    kept &= ~below
    return np.stack(np.unravel_index(np.flatnonzero(kept), shape), axis=1), cnt > 0


def _small_closure(fields: _IntLayout, gens: list[int], step: int, cap: int) -> list[int]:
    """``_closure`` on Python ints that hold the one-word packed keys of ``gens``.

    The same rounds, chunks of ``step`` frontier points and cap counts as the
    array branch, with ``_Packing.join`` and ``_contractible`` done a key at
    a time on the packing's ``_IntLayout``.  On one word a key is the packed
    word, and the numeric order of the keys is the packed-key order, so the
    survivors come back sorted as the array branch sorts them.  In
    d = (p | guard) - g a field keeps its guard bit iff p_v >= g_v, and then
    holds p_v - g_v, so p v g = g + (d & the value bits of those fields).
    """
    guard, low = fields.guard, fields.low
    held = set(gens)  # a minimal generator is never contractible
    frontier = sorted(held)
    while frontier:
        pending: list[set[int]] = []
        count = len(held)
        for lo in range(0, len(frontier), step):
            keys = set()
            for p in frontier[lo : lo + step]:
                p |= guard
                for g in gens:
                    d = p - g
                    keys.add(g + (d & fields[d & guard]))
            keys -= held
            pending.append(keys)
            count += len(keys)
            if count > cap:  # the chunks may share candidates: count the distinct ones
                pending = [set().union(*pending)]
                count = len(held) + len(pending[0])
                if count > cap:
                    raise CapError.over("lattice", f"lcm lattice reached {count} points", cap)
        frontier = []
        for p in sorted(set().union(*pending)):
            ones = ((p | guard) - low) & guard  # the guard bits of supp(p)
            lowered = p - ones + fields[ones]  # p minus the indicator of supp(p)
            for g in gens:  # as _contractible tests; a candidate is never the point 0
                if (lowered - g) & guard == 0:
                    break
            else:
                frontier.append(p)
        held.update(frontier)
    return sorted(held)


# -- homology of upper Koszul complexes, in batches --------------------------

@functools.lru_cache(maxsize=None)
def _popcounts(m: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(1 << m)], dtype=np.int8)


def _faces(batch: list[np.ndarray], m: int) -> np.ndarray:
    """Indicators, over all 2^m subsets, of each complex's faces.

    Complex b has the faces tau disjoint from some mask of ``batch[b]``:
    the complements of its masks span it.  Closing them downwards one
    vertex at a time needs one boolean array for the whole batch.
    """
    faces = np.zeros((len(batch), 1 << m), dtype=bool)
    owner = np.repeat(np.arange(len(batch)), [len(masks) for masks in batch])
    faces[owner, ((1 << m) - 1) ^ np.concatenate(batch)] = True
    for v in range(m):
        split = faces.reshape(len(batch), -1, 2, 1 << v)  # [higher bits, bit v, lower bits]
        split[:, :, 0, :] |= split[:, :, 1, :]
    return faces


def _boundary_ranks(owner: np.ndarray, face: np.ndarray, index: np.ndarray,
                    nrows: np.ndarray, ncols: np.ndarray, k: int, char: int) -> np.ndarray:
    """Rank of each complex's boundary from its k-faces to its (k-1)-faces.

    ``owner`` and ``face`` list the k-faces by complex; complex b has
    ``ncols[b]`` of them and ``nrows[b]`` (k-1)-faces, and face g is row or
    column ``index[b, g]``.  The column of a k-face holds (-1)^t at the
    facet that drops its t-th lowest vertex, as in the full simplex.  A
    facet whose index is negative is no row, and its entry is left out: a
    relative boundary, into the faces outside a subcomplex.  A complex
    without listed faces gets rank 0.
    """
    rows = np.empty((len(face), k), dtype=np.int32)
    rest = face
    for t in range(k):
        low = rest & -rest
        rows[:, t] = index[owner, face ^ low]
        rest = rest ^ low
    sign = np.ones((len(face), k), dtype=np.int8)
    sign[:, 1::2] = -1
    entries = [np.repeat(owner, k), rows.ravel(), np.repeat(index[owner, face], k), sign.ravel()]
    kept = entries[1] >= 0
    if not kept.all():
        entries = [a[kept] for a in entries]
    ranks = np.zeros(len(ncols), dtype=np.int64)
    for members, matrix in rank_inputs(*entries, nrows, ncols, char):
        ranks[members] = rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)
    return ranks


def _ranks(faces: np.ndarray, m: int, char: int,
           wanted: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Face counts and boundary ranks of chain complexes of faces on m vertices.

    Complex b has the faces that row b of ``faces`` marks, and the full
    simplex's boundary, restricted to them.  Returns counts[k, b], its faces
    of cardinality k, and ranks[k, b], the rank of its boundary from those
    to the (k-1)-faces (0 for k = 0 and k = m + 1).  ``wanted[k - 1, b]``
    marks the boundaries to rank, all by default; the others get rank 0.

    Over Q the boundaries of a batch of ``_CERTIFY_MIN_FACES`` faces or more
    are first ranked over GF(_CERTIFYING_PRIME).  A rank over GF(p) is at
    most the rank over Q, and the excess d_k of boundary k lowers the
    homology at both its ends, which stays >= 0; so d_k > 0 only where the
    GF(p) homology is nonzero at both ends.  Those boundaries, and those
    whose dense GF(p) matrix would pass ``linalg.DENSE_CELL_LIMIT``, are
    ranked by ``rank_exact``, as are all those of a smaller batch.  So a
    wanted boundary's neighbours are ranked over GF(p) too, unless past the
    dense limit; a neighbour left out counts as rank 0, which can only
    leave more boundaries to ``rank_exact``.
    """
    owner, face = np.divmod(np.flatnonzero(faces), 1 << m)
    # the faces by cardinality, then complex, then bitmask; a face's place
    # among those of its complex and cardinality is its index, -1 a non-face's
    group = _popcounts(m)[face].astype(np.int64) * len(faces) + owner
    order = np.argsort(group, kind="stable")
    owner, face = owner[order], face[order]
    counts = np.bincount(group, minlength=(m + 1) * len(faces))
    starts = np.cumsum(counts) - counts
    index = np.full(faces.shape, -1, dtype=np.int32)
    index[owner, face] = np.arange(len(face)) - np.repeat(starts, counts)
    counts, starts = counts.reshape(m + 1, len(faces)), starts.reshape(m + 1, len(faces))

    def ranked(k: int, field: int, chosen: np.ndarray | None = None) -> np.ndarray:
        """Ranks of boundary k over the field, of the complexes ``chosen`` marks."""
        span = slice(starts[k, 0], starts[k, 0] + counts[k].sum())
        mine = slice(None) if chosen is None else chosen[owner[span]]
        return _boundary_ranks(owner[span][mine], face[span][mine], index,
                               counts[k - 1], counts[k], k, field)

    cells = counts[:-1] * counts[1:]  # boundary k in row k - 1
    exact = cells > linalg.DENSE_CELL_LIMIT  # over Q ranked sparse: never refused
    certify = char == 0 and len(face) >= _CERTIFY_MIN_FACES
    near = wanted
    if wanted is not None:
        if certify:
            near = wanted.copy()
            near[1:] |= wanted[:-1]
            near[:-1] |= wanted[1:]
            near &= wanted | ~exact
        exact &= wanted
        cells = np.where(near, cells, 0)
    ranks = np.zeros((m + 2, len(faces)), dtype=np.int64)
    # the largest boundary first: a batch over the dense limit is refused at once
    top = cells.max(axis=1)
    steps = np.argsort(-top, kind="stable")[: np.count_nonzero(top)] + 1
    for k in steps:
        chosen = None if near is None else near[k - 1]
        if not certify or not exact[k - 1].any():
            ranks[k] = ranked(k, _CERTIFYING_PRIME if certify else char, chosen)
        else:
            inexact = ~exact[k - 1] if chosen is None else chosen & ~exact[k - 1]
            ranks[k] = ranked(k, _CERTIFYING_PRIME, inexact) + ranked(k, 0, exact[k - 1])
    if certify:
        dims = counts - ranks[:-1] - ranks[1:]
        uncertified = (dims[:-1] > 0) & (dims[1:] > 0) & ~exact
        if wanted is not None:
            uncertified &= wanted
        for k in steps:
            if uncertified[k - 1].any():
                again = ranked(k, 0, uncertified[k - 1])
                ranks[k] = np.where(uncertified[k - 1], again, ranks[k])
    return counts, ranks


def _homology_from_masks(batch: list[np.ndarray], m: int, char: int) -> list[dict[int, int]]:
    """Reduced homology dimensions of complexes on m vertices, computed together.

    Complex b is the union of the simplices comp(mask) for the masks in
    ``batch[b]``: the tight sets of the dividing generators, as bitmasks on
    the m support variables.  Returns, for each, {i: dim H-tilde_(i-1)}
    with zero entries omitted.  The ranks come from ``_ranks``.
    """
    out: list[dict[int, int]] = [{} for _ in batch]
    todo = []
    full = (1 << m) - 1
    for b, masks in enumerate(batch):
        if len(masks) == 0:
            continue
        if (masks == full).all():
            out[b] = {0: 1}  # complex {empty face}: one unit of reduced homology below dim 0
        elif (masks != 0).all() and np.bitwise_or.reduce(masks) == full:
            todo.append(b)
        # else a full simplex, or a cone on a vertex in no mask: contractible
    step = max(1, linalg._CELL_BUDGET >> m)
    for lo in range(0, len(todo), step):
        part = todo[lo : lo + step]
        counts, ranks = _ranks(_faces([batch[b] for b in part], m), m, char)
        dims = counts - ranks[:-1] - ranks[1:]
        for b, column in zip(part, dims.T.tolist()):
            out[b] = {i: d for i, d in enumerate(column) if d}
    return out


# -- whole-table computation ------------------------------------------------


def _contractible(words: np.ndarray, packing: _Packing, packed_gens: np.ndarray) -> np.ndarray:
    """Points whose upper Koszul complex is a full simplex, in bulk, on packed words.

    That happens iff some generator g divides b with g_v < b_v on all of
    supp(b), i.e. divides b minus the indicator of supp(b).  The point 0 is
    excluded: its complex is {empty face}, which has reduced homology.
    """
    return packing.divisible(packed_gens, packing.lowered(words)) & (words != 0).any(axis=1)


def _pairs_minimal(point: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Which (point, mask) pairs hold an inclusion-minimal mask of their point.

    The pairs are distinct and sorted by point, then mask.  A mask inside
    another is smaller as a number, so the first mask of a point is
    minimal; each round keeps the first remaining mask of every point and
    drops the masks that contain it, until no pair remains.
    """
    keep = np.zeros(len(point), dtype=bool)
    head = np.empty(point.max(initial=0) + 1, dtype=np.int64)
    live = np.arange(len(point))
    while len(live):
        owner = point[live]
        first = np.ones(len(live), dtype=bool)
        first[1:] = owner[1:] != owner[:-1]
        keep[live[first]] = True
        head[owner[first]] = mask[live[first]]
        under = head[owner]
        live = live[(mask[live] & under) != under]
    return keep


def _tight_masks(chunk: np.ndarray, words: np.ndarray, supp: np.ndarray, sizes: np.ndarray,
                 side: _PackedGens) -> tuple[np.ndarray, np.ndarray]:
    """The inclusion-minimal tight masks of every point of ``chunk``, in bulk.

    A generator g of ``side`` dividing b has the tight set {v : g_v = b_v}
    on supp(b), a bitmask over supp(b)'s variables renumbered as 0..m-1.
    Returns the (point, mask) pairs that are minimal, sorted by point, then
    mask; ``words`` is the chunk packed on the side's packing, and ``sizes``
    its support sizes.  The pairs come from the dividing (point, generator)
    pairs, by packed-word tests (``_pair_masks``).  But where the side holds
    its closure's box, a point whose 2^m box lookups undercut its k divisor
    tests (2^m <= ``_BOX_LOOKUPS_PER_GEN`` * k) reads its masks off the box
    instead (``_box_masks``), the same pairs.  Each run of consecutive points
    that take the pairs, or the box at one m, is done in one piece, or on
    the box in slices of at most ``_CHUNK_CELLS`` lookups, in chunk order;
    the walk's chunks, largest support first, hold one run of pairs and
    then one run per m.
    """
    if side.box is None:
        return _pair_masks(chunk, words, supp, side)
    path = np.where((1 << sizes) <= _BOX_LOOKUPS_PER_GEN * len(side.gens), sizes, -1)
    cuts = [0, *(np.flatnonzero(path[1:] != path[:-1]) + 1).tolist(), len(chunk)]
    points, masks = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        m = int(path[lo])
        step = hi - lo if m < 0 else max(1, _CHUNK_CELLS >> m)  # a slice's lookups stay in budget
        for at in range(lo, hi, step):
            upto = min(at + step, hi)
            if m < 0:
                point, mask = _pair_masks(chunk[at:upto], words[at:upto], supp[at:upto], side)
            else:
                point, mask = _box_masks(chunk[at:upto], supp[at:upto], m, side.box)
            points.append(point + at)
            masks.append(mask)
    return np.concatenate(points), np.concatenate(masks)


def _pair_masks(chunk: np.ndarray, words: np.ndarray, supp: np.ndarray,
                side: _PackedGens) -> tuple[np.ndarray, np.ndarray]:
    """``_tight_masks`` from the dividing (point, generator) pairs, by packed-word tests."""
    gens = side.gens
    divides = side.packing.divides(side.words[None], words[:, None, :])
    point, gen = np.divmod(np.flatnonzero(divides), len(gens))  # 2-D nonzero is slower
    place = np.where(supp, np.int64(1) << (np.cumsum(supp, axis=1) - supp), 0)
    mask = ((gens[gen] == chunk[point]) * place[point]).sum(axis=1)
    pair = _sorted_unique((point.astype(np.int64) << 24) | mask)
    point, mask = pair >> 24, pair & ((1 << 24) - 1)
    keep = _pairs_minimal(point, mask)
    return point[keep], mask[keep]


def _box_masks(chunk: np.ndarray, supp: np.ndarray, m: int,
               box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_tight_masks`` of points of support size m, read off ``box``, the ideal's indicator.

    tau on supp(b) is a face of b's complex iff x^(b - tau) lies in the
    ideal: 2^m lookups in the box, at offsets built one variable at a time.
    A face is a facet iff no face holds it and one more vertex, m shifted
    comparisons.  The facets are the complements of the inclusion-minimal
    tight sets, so the masks are the facets read off the face axis reversed,
    in ascending order.  The arrays run over tau first, then the points, so
    that every step works on contiguous blocks.
    """
    n = len(chunk)
    strides = np.array(box.strides, dtype=np.int64)  # a bool per cell: strides in cells
    step = strides[np.nonzero(supp)[1]].reshape(n, m).T  # supp(b)'s variables, lowest first
    at = np.empty((1 << m, n), dtype=np.int64)
    at[0] = chunk @ strides
    for j in range(m):
        np.subtract(at[: 1 << j], step[j], out=at[1 << j : 2 << j])
    faces = box.reshape(-1)[at]
    facets = faces.copy()
    for j in range(m):  # [higher bits, bit j, lower bits and the points]
        upper = faces.reshape(-1, 2, n << j)[:, 1]
        lower = facets.reshape(-1, 2, n << j)[:, 0]
        np.greater(lower, upper, out=lower)
    return np.divmod(np.flatnonzero(facets[::-1].T), 1 << m)


def _within_support_limit(largest: int) -> None:
    """The walk's fixed limit: a tight mask packs into the low 24 bits of a (point, mask)
    key, and a complex on m vertices takes arrays of 2^m entries."""
    if largest > 24:
        raise CapError.fixed(f"a lattice point reached a support of {largest} variables", 24,
                             whose="the walk's")


def _walk_packing(points: np.ndarray, sides: tuple[np.ndarray, ...]) -> _Packing:
    """The packing of the walk's points and of every generator array of ``sides``."""
    return _Packing(functools.reduce(np.maximum, (side.max(axis=0) for side in sides),
                                     points.max(axis=0)))


def _point_masks(points: np.ndarray, words: np.ndarray, sides: list[_PackedGens]):
    """The walk's chunks of ``points``, with the tight masks of each generator set of ``sides``.

    Yields (chunk, support sizes, [``_tight_masks`` pairs, one per side]),
    each chunk held to the support limit before its masks are found.  The
    sides share one packing, on which ``words`` are the points' packed rows.
    """
    step = max(1, _CHUNK_CELLS // (sum(side.gens.size for side in sides) + 1))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        supp = chunk > 0
        sizes = supp.sum(axis=1)
        _within_support_limit(sizes.max(initial=0))
        yield chunk, sizes, [_tight_masks(chunk, words[lo : lo + step], supp, sizes, side)
                             for side in sides]


def _cached(cache: dict, keys: list, pending: dict[int, dict], compute) -> list:
    """The values of ``keys``, read from ``cache`` or computed, in key order.

    ``pending`` holds the inputs of the keys that ``cache`` lacks, grouped
    by support size m, {m: {key: input}}; ``compute(inputs, m)`` gives a
    group's values in order.  The groups go largest m first, so a GF(p)
    boundary over the dense limit is met, and refused, before the smaller
    ranks are spent.  The new values go into ``cache``, which is emptied
    first if they would take it past ``_CACHE_ENTRIES``; more new values
    than that are not kept.
    """
    new = {}
    for m, group in sorted(pending.items(), reverse=True):
        new.update(zip(group, compute(list(group.values()), m)))
    found = [new[key] if key in new else cache[key] for key in keys]
    if len(cache) + len(new) > _CACHE_ENTRIES:
        cache.clear()
    if len(new) <= _CACHE_ENTRIES:
        cache.update(new)
    return found


def _points_betti(points: np.ndarray, words: np.ndarray, table: _PackedGens, char: int,
                  cache: dict) -> dict[tuple[int, Exponents], int]:
    """Betti entries {(i, b): dim} at the given lattice points, in chunks.

    ``words`` are the points packed on ``table``'s packing, as the closure
    gives them.  Each chunk is array work up to its distinct complexes: the
    inclusion-minimal tight masks on supp(b) of every point, from the
    dividing (point, generator) pairs or from the closure's box
    (``_tight_masks``), and one key row per point, [m, masks..., -1
    padding].  Python steps once per distinct row, for its key and cache
    lookup; ``_cached`` reads and fills ``cache``.  Each point's entries are
    then gathered in bulk from its complex's, and the walk's entries are
    returned sorted by (i, b), one Python step each.  A walk of at most
    ``_SMALL_WALK_PAIRS`` (point, generator) pairs on one packed word runs
    on Python ints instead (``_small_walk``), which visits every point.
    """
    if table.packing.nwords == 1 and len(points) * len(table.gens) <= _SMALL_WALK_PAIRS:
        return _small_walk(points, words[:, 0].tolist(), table, char, cache)
    none = np.zeros(0, dtype=np.int64)
    degrees, dims, hits = [none], [none], [points[:0]]  # every chunk's entries
    for chunk, sizes, [(point, mask)] in _point_masks(points, words, [table]):
        count = np.bincount(point, minlength=len(chunk))
        rows = np.full((len(chunk), count.max() + 1), -1, dtype=np.int64)
        rows[:, 0] = sizes
        rows[point, 1 + np.arange(len(point)) - np.searchsorted(point, point)] = mask
        _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
        keys = []
        pending: dict[int, dict] = {}  # uncached complexes by size, {key: masks}
        for row in first.tolist():
            m, masks = int(sizes[row]), rows[row, 1 : 1 + count[row]]
            key = (m, masks.tobytes())
            keys.append(key)
            if key not in cache:
                pending.setdefault(m, {})[key] = masks
        found = _cached(cache, keys, pending,
                        lambda batch, m: _homology_from_masks(batch, m, char))
        # each point's entries are its complex's (i, dim) pairs, listed for all the complexes
        # in one array: entry t of a point is read at its complex's start, plus t's place
        # among the point's entries
        per = np.array([len(homology) for homology in found], dtype=np.int64)
        listed = np.array([entry for homology in found for entry in homology.items()],
                          dtype=np.int64).reshape(-1, 2)
        many = per[inverse]
        owner = np.repeat(np.arange(len(chunk)), many)  # the point of each entry
        lead = np.cumsum(many) - many  # each point's first entry
        at = ((np.cumsum(per) - per)[inverse] - lead)[owner] + np.arange(len(owner))
        degrees.append(listed[at, 0])
        dims.append(listed[at, 1])
        hits.append(chunk[owner])
    degree, dim, b = (np.concatenate(column) for column in (degrees, dims, hits))
    order = np.lexsort((*b.T[::-1], degree))  # by i, then b
    entries: dict[tuple[int, Exponents], int] = {}
    for lo in range(0, len(order), 1 << 12):  # one slice's points as Python lists at a time
        part = order[lo : lo + (1 << 12)]
        entries.update(zip(zip(degree[part].tolist(), map(tuple, b[part].tolist())),
                           dim[part].tolist()))
    return entries


def _small_walk(points: np.ndarray, keyed: list[int], table: _PackedGens, char: int,
                cache: dict) -> dict[tuple[int, Exponents], int]:
    """``_points_betti`` on Python ints that hold the one-word packed keys of the points.

    The same chunks, support-limit check, keys and cache rule as the array
    branch, on the packing's ``_IntLayout``.  A generator g divides the
    point p iff (p - g) keeps every guard bit clear, and ((g | guard) - p)
    keeps the guard bits where g_v >= p_v: on supp(p), for a divisor, its
    tight set.  Tight sets are compared as guard bits, which keep the order
    and inclusions of the masks, and only the minimal ones are renumbered
    onto supp(p), once per (supp(p), tight sets) pair the walk meets.
    """
    fields = table.fields
    guard, low = fields.guard, fields.low
    divisors = [(g, g | guard) for g in table.keys]
    rows = points.tolist()
    step = max(1, _CHUNK_CELLS // (table.gens.size + 1))
    entries: dict[tuple[int, Exponents], int] = {}
    known: dict[tuple[int, frozenset[int]], tuple[int, bytes]] = {}  # (supp, tight sets) -> key
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        sizes = [len(b) - b.count(0) for b in chunk]
        _within_support_limit(max(sizes))
        keys = []
        pending: dict[int, dict] = {}  # uncached complexes by size, {key: masks}
        for p, m in zip(keyed[lo : lo + step], sizes):
            supp = ((p | guard) - low) & guard
            tight = frozenset([(lifted - p) & supp for g, lifted in divisors
                               if (p - g) & guard == 0])
            key = known.get((supp, tight))
            if key is None:
                minimal: list[int] = []
                for t in sorted(tight):
                    for u in minimal:
                        if t & u == u:
                            break
                    else:
                        minimal.append(t)
                masks = []
                for t in minimal:  # the j-th guard bit of supp(p), lowest first, becomes bit j
                    mask = 0
                    while t:
                        bit = t & -t
                        mask |= 1 << (supp & (bit - 1)).bit_count()
                        t ^= bit
                    masks.append(mask)
                key = known[supp, tight] = (m, array("q", masks).tobytes())
            keys.append(key)
            if key not in cache:
                pending.setdefault(m, {})[key] = np.frombuffer(key[1], dtype=np.int64)
        found = _cached(cache, keys, pending,
                        lambda batch, m: _homology_from_masks(batch, m, char))
        for b, dims in zip(chunk, found):
            if dims:
                bt = tuple(b)
                for i, d in dims.items():
                    entries[(i, bt)] = d
    return entries


def _multigraded(gens: np.ndarray, char: int, caps: Caps) -> dict[tuple[int, Exponents], int]:
    """Multigraded Betti numbers of the ideal generated by ``gens`` (minimal).

    A verified product over disjoint variable blocks is the convolution of
    its factors' tables (``_factors``); any other ideal is walked (``_walked``).
    """
    factors = _factors(gens, char, caps)
    return _walked(gens, char, caps) if factors is None else _convolve(factors, gens.shape[1])


def _factors(gens: np.ndarray, char: int,
             caps: Caps) -> list[tuple[np.ndarray, dict[tuple[int, Exponents], int]]] | None:
    """The factors' tables of a verified product over disjoint blocks, or None for no product.

    The product's Betti points, as many as the product of its factors'
    counts, are held to the ``lattice`` cap (the product's lattice has at
    least as many points) before anything is convolved.
    """
    factors = _product_split(gens)
    if factors is None:
        return None
    tables = [(cols, _multigraded(sub, char, caps)) for cols, sub in factors]
    count = math.prod(len({b for _, b in local}) for _, local in tables)
    if count > caps.lattice:
        raise CapError.over(
            "lattice", f"a product over disjoint variable blocks has {count} Betti points",
            caps.lattice)
    return tables


def _walked(gens: np.ndarray, char: int, caps: Caps) -> dict[tuple[int, Exponents], int]:
    """The Betti table of ``gens`` from the walk of their lcm lattice's survivors.

    A principal ideal is answered without a closure or a walk, unless its one
    lattice point is over the cap, where ``_closure`` refuses it as it
    refuses any lattice.  The walk runs in the calling process, and reads
    and fills its cache of the field.
    """
    if len(gens) == 1 and caps.lattice >= 1:
        # a principal ideal is free, on a one-point lattice: beta_0 at the generator
        return {(0, tuple(gens[0].tolist())): 1}
    table = _PackedGens(_Packing(gens.max(axis=0)), gens)
    words = _closure(table, caps.lattice)
    points = table.packing.unpack(words)
    # largest support first: the largest complexes meet the dense limit before any rank
    order = np.argsort(-(points > 0).sum(axis=1), kind="stable")
    points, words = points[order], words[order]  # the unsorted copies are freed before the walk
    return _points_betti(points, words, table, char, _CACHES.setdefault(char, {}))


# -- exact product factorization --------------------------------------------


def _product_split(gens: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Split minimal generators into a verified product over disjoint blocks.

    Returns [(column indices, projected minimal generators), ...] or None.
    The candidate partition joins two columns whose pairs of values are
    fewer than the product of their distinct values; every column pair,
    (i, i) counting column i's own values, is counted by one sort of their
    keys down the generators.  The partition is then verified exactly: the
    generator set must be the full cartesian product of its block
    projections.  Only a verified split is ever used.

    Most tables are no product, and an exact necessary test, on Python
    ints, turns most of those away before the sort (``_no_split``).
    """
    k = len(gens)
    if k < 4 or _no_split(gens):
        return None
    active = np.flatnonzero(gens.any(axis=0))
    if len(active) < 2:
        return None
    cols = gens[:, active].astype(np.int64)
    top = cols.max(axis=0) + 1
    a, b = _column_pairs(len(active))
    distinct = np.empty(len(a), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // k)  # key columns a sort, within the walk's cell bound
    for lo in range(0, len(a), step):
        i, j = a[lo : lo + step], b[lo : lo + step]
        keys = np.sort(cols[:, i] * top[j] + cols[:, j], axis=0)
        distinct[lo : lo + step] = 1 + (keys[1:] != keys[:-1]).sum(axis=0)
    own = distinct[a == b]
    parent = list(range(len(active)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dependent = (distinct != own[a] * own[b]) & (a < b)
    for i, j in zip(a[dependent].tolist(), b[dependent].tolist()):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i, col in enumerate(active.tolist()):
        groups.setdefault(find(i), []).append(col)
    if len(groups) < 2:
        return None
    blocks = sorted(groups.values())
    projections = []
    count = 1
    for block in blocks:
        sub = _unique_rows(gens[:, block])
        projections.append((np.array(block), sub))
        count *= len(sub)
    if count != k:
        return None
    return projections


def _no_split(gens: np.ndarray) -> bool:
    """True only if ``gens`` are no product over two or more blocks.

    In a product whose every block has two or more projections, the value
    of a column in block B comes with each projection of the other blocks,
    so each value's count is a multiple of k / |B| >= 2.  A block with one
    projection has only constant columns.  So when no active column is
    constant, an active column whose value counts have gcd 1 rules a split
    out.
    """
    coprime = False
    for column in zip(*gens.tolist()):
        values = set(column)
        if len(values) == 1:
            if column[0]:
                return False  # a constant active column: the test says nothing
        elif not coprime:
            coprime = math.gcd(*map(column.count, values)) == 1
    return coprime


@functools.lru_cache(maxsize=None)
def _column_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i <= j of n columns, as ``np.triu_indices(n)`` gives them (read-only).

    Kept per n: ``np.triu_indices`` takes about 20 us, half a small split's time.
    """
    pairs = np.triu_indices(n)
    for side in pairs:
        side.flags.writeable = False
    return pairs


def _convolve(
    tables: list[tuple[np.ndarray, dict[tuple[int, Exponents], int]]], nvars: int
) -> dict[tuple[int, Exponents], int]:
    acc: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * nvars): 1}
    for cols, local in tables:
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (i1, b1), d1 in acc.items():
            for (i2, b2), d2 in local.items():
                vec = list(b1)
                for pos, c in enumerate(cols):
                    vec[int(c)] += b2[pos]
                key = (i1 + i2, tuple(vec))
                nxt[key] = nxt.get(key, 0) + d1 * d2
        acc = nxt
    return acc


def _largest_support(tables: list[tuple[np.ndarray, dict[tuple[int, Exponents], int]]]) -> int:
    """The largest support of a point of the convolved table in Tor_i with i > 0 (0 if none).

    The blocks are disjoint, so a convolved point's support is the sum of its
    factors' points' supports, and it lies in Tor_i with i > 0 iff one of
    them does.
    """
    tops = []  # per factor: (largest support, largest support in Tor_i with i > 0)
    for _, local in tables:
        sizes = [(i > 0, len(b) - b.count(0)) for i, b in local]
        above = max((size for higher, size in sizes if higher), default=None)
        tops.append((max(size for _, size in sizes), above))
    total = sum(top for top, _ in tops)
    return max((total - top + above for top, above in tops if above is not None), default=0)


# -- public table ------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a monomial ideal over a fixed field."""

    subject: MonomialIdeal
    characteristic: int
    entries: tuple[tuple[int, Exponents, int], ...]  # (i, multidegree, dim)

    def multigraded(self) -> dict[tuple[int, Exponents], int]:
        return {(i, b): d for i, b, d in self.entries}

    def coarse(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i, b, d in self.entries:
            key = (i, sum(b))
            out[key] = out.get(key, 0) + d
        return out

    def max_index(self) -> int:
        return max((i for i, _, _ in self.entries), default=0)

    def regularity(self) -> int:
        return max(sum(b) - i for i, b, _ in self.entries)

    def total(self, i: int) -> int:
        return sum(d for j, _, d in self.entries if j == i)

    def to_json_dict(self) -> dict:
        coarse = sorted(self.coarse().items())
        return {
            "char": self.characteristic,
            "entries": [{"i": i, "j": j, "dim": d} for (i, j), d in coarse],
            "multigraded": [
                {"i": i, "b": list(b), "dim": d}
                for i, b, d in sorted(self.entries)
            ],
        }


def betti_table(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> BettiTable:
    """Multigraded Betti numbers of a nonzero monomial ideal.

    ``threads`` is accepted and ignored: every walk runs in the calling process.
    """
    if ideal.is_zero():
        raise DomainError("Betti table of the zero ideal")
    char = resolve_characteristic(ideal.ring, characteristic)
    entries = _multigraded(ideal.array(), char, caps)
    packed = tuple(sorted((i, b, d) for (i, b), d in entries.items()))
    return BettiTable(ideal, char, packed)


# -- induced Tor maps ----------------------------------------------------------


def _inclusion_field(small: MonomialIdeal, big: MonomialIdeal, characteristic: int | None) -> int:
    """The field of an inclusion small -> big of ideals, once the inclusion is checked."""
    if small.is_zero():
        raise DomainError("Tor map from the zero ideal")
    if not big.contains(small):
        raise DomainError("tor_map requires an inclusion of ideals")
    return resolve_characteristic(small.ring, characteristic)


def _maps_nonzero(pairs: list[tuple[np.ndarray, np.ndarray]], m: int, i: int,
                  char: int) -> np.ndarray:
    """Whether K(small) <= K(big) induces a nonzero map on H-tilde_(i-1), for each pair.

    A pair holds the minimal tight masks of small and of big at one point,
    on its m support variables, where small has a Betti number in Tor_i
    with 0 < i < m (one in Tor_m needs a face on all m vertices, and so a
    full simplex, which has no homology).  The map has rank dim Z_i(small)
    minus the dimension of the boundaries of big that are chains of small.
    Those are the image of big's boundary D into its i-faces, cut by the
    kernel of P, which deletes the rows of small's i-faces; so their
    dimension is rank D - rank PD.  PD has the rank of the relative
    boundary: the chain complex of big's faces outside small, from its
    (i+1)-faces.
    """
    out = []
    step = max(1, (linalg._CELL_BUDGET >> m) // 3)
    for lo in range(0, len(pairs), step):
        faces = _faces([masks for pair in pairs[lo : lo + step] for masks in pair], m)
        small, big = faces[0::2], faces[1::2]
        n = len(small)
        wanted = np.zeros((m, 3 * n), dtype=bool)  # boundary k in row k - 1
        wanted[i - 1, :n] = True  # small's boundary i
        wanted[i, n:] = True  # big's and the relative boundary i + 1
        counts, ranks = _ranks(np.concatenate([small, big, big & ~small]), m, char, wanted)
        cycles = counts[i, :n] - ranks[i, :n]
        out.append(cycles > ranks[i + 1, n : 2 * n] - ranks[i + 1, 2 * n :])
    return np.concatenate(out)


def tor_vanishing(
    small: MonomialIdeal,
    big: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[bool, tuple[int, int] | None]:
    """True iff every induced map Tor_i(k, small)_j -> Tor_i(k, big)_j is zero.

    Returns (vanishing, witness); the witness is the least (i, j), by i
    and then j, carrying a nonzero induced map, when one exists.  At a
    multidegree b the map is the one that K^b(small) <= K^b(big) induces
    on H-tilde_(i-1), since the upper Koszul complex computes Tor naturally
    in the ideal (Miller-Sturmfels, Thm 1.34).  So it can be nonzero only
    at small's Betti points.  In Tor_0 they are small's generators, and
    the map is the identity on those that big shares; the walk finds the
    others, under the ``lattice`` cap and the support limit of 24
    variables.  A product's convolved points obey that limit too: the
    largest support among them in Tor_i, i > 0, is read off the factors'
    tables and refused before the convolution.  The points are taken by i,
    all of one i together.  Whether a map is nonzero depends only on i,
    the field and the key (m, small's minimal tight masks, big's), so each
    verdict is kept in the field's cache with the walk's complexes, through
    the same ``_cached``, and ranks (``_maps_nonzero``) decide only the
    keys the cache does not hold, once per key, largest m first.
    """
    char = _inclusion_field(small, big, characteristic)
    # Tor_0 is spanned by the minimal generators, so the map on it is nonzero
    # exactly at small's generators that are big's too
    shared = set(small.gens).intersection(big.gens)
    if shared:
        return False, (0, min(map(sum, shared)))
    gens = small.array()
    factors = _factors(gens, char, caps)
    if factors is None:
        table = _walked(gens, char, caps)
    else:
        _within_support_limit(_largest_support(factors))
        table = _convolve(factors, gens.shape[1])
    entries = [key for key in table if key[0] > 0]
    if not entries:  # small is free, as a principal ideal is: no Tor above Tor_0
        return True, None
    big_gens = big.array()
    points = np.array(sorted({b for _, b in entries}), dtype=np.int64)  # all within the limit
    pairs = {}  # point -> (key, (small's masks, big's masks))
    packing = _walk_packing(points, (gens, big_gens))
    both = [_PackedGens(packing, side) for side in (gens, big_gens)]
    for chunk, sizes, sides in _point_masks(points, packing.pack(points), both):
        cuts = [np.split(mask, np.searchsorted(point, np.arange(1, len(chunk))))
                for point, mask in sides]
        for b, m, *pair in zip(chunk.tolist(), sizes.tolist(), *cuts):
            pairs[tuple(b)] = ((m, *(masks.tobytes() for masks in pair)), pair)
    by_degree: dict[int, list[tuple[int, Exponents]]] = {}
    for i, b in entries:
        by_degree.setdefault(i, []).append((sum(b), b))
    cache = _CACHES.setdefault(char, {})
    for i, level in sorted(by_degree.items()):
        keys = [(i, *pairs[b][0]) for _, b in level]
        pending: dict[int, dict] = {}  # uncached maps by support size, {key: pair}
        for key, (_, b) in zip(keys, level):
            if key not in cache:
                pending.setdefault(key[1], {})[key] = pairs[b][1]
        found = _cached(cache, keys, pending,
                        lambda batch, m: _maps_nonzero(batch, m, i, char).tolist())
        witnesses = [j for (j, _), nonzero in zip(level, found) if nonzero]
        if witnesses:
            return False, (i, min(witnesses))
    return True, None
