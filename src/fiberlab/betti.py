"""Multigraded Betti numbers via homology of upper Koszul complexes.

For a monomial ideal the only multidegrees carrying Betti numbers are the
joins (componentwise maxima) of generator degrees.  The engine closes the
generator degrees under join, then computes reduced simplicial homology of
the upper Koszul complex at every lattice point, over Q (fraction-free
integer elimination) or GF(p).

The complex at a point b is a union of full simplices: a squarefree tau
below b is a face iff x^(b-tau) lies in the ideal, which happens iff tau
avoids the "tight set" {v : g_v = b_v} of some generator g dividing x^b.
Two consequences keep most points away from per-point work:

* Bulk prune.  When some divisor g has g_v < b_v on all of supp(b), its
  tight set on supp(b) is empty and the complex is the full simplex, which
  has no homology.  One vectorised divisibility test drops these points
  right after the closure, before the walk or the process pool sees them;
  they are most of a large lattice.
* Antichain key.  A face that avoids a tight set also avoids every subset
  of it, so each surviving point keeps only its inclusion-minimal tight
  sets.  They determine the complex up to relabelling of supp(b) by
  position, and key the homology cache, so each distinct complex is
  computed once.

The walk meets the points largest support first, in chunks, and works on
a chunk in bulk: the dividing (point, generator) pairs by packed-word
tests, their tight masks, the inclusion-minimal masks of every point, and
one key row per point, whose distinct rows are the chunk's complexes.
It computes the uncached ones together, grouped by support size m,
largest m first.  One (complexes x 2^m) boolean array holds a group's
faces.  A complex's boundary from k- to (k-1)-faces is the full
simplex's, restricted to the complex's own faces: every column keeps all
its entries, since a complex holds the facets of its faces.  The walk
only computes where those entries go: ``linalg.rank_inputs``, which the
Koszul engine uses too, lays out the boundaries of one k for
``rank_mod_p`` or ``rank_exact``, largest k first.  A fixed cell budget
splits the face arrays and the stacks.  Large supports carry the large
complexes, so a GF(p) boundary over the dense limit is met, and refused,
before ranks are spent on the many small ones.

Over Q the boundaries of a large batch are ranked over GF(2^31 - 1)
first.  By the universal coefficient theorem the two homologies differ
only where the GF(p) one is nonzero in two adjacent degrees, so
``rank_exact`` ranks only the boundaries between such degrees, and those
whose GF(p) matrix would pass the dense limit, which a walk over Q never
raises.

Boundary ranks are computed only for complexes that are not cones (a
vertex in no minimal tight set lies in every facet).  The closure, the
bulk prune and the walk's divisibility tests run on the packed exponent
rows of ``ideals`` (int64 words, deduplicated by sorting; ``_divisible``
for the prune).

The same complexes decide Tor-vanishing (``tor_vanishing``): for an
inclusion small <= big, the map Tor_i(small)_b -> Tor_i(big)_b is the map
on H-tilde_(i-1) that K^b(small) <= K^b(big) induces, since the upper
Koszul complex computes Tor naturally in the ideal (Miller-Sturmfels,
Thm 1.34).  At small's Betti points, which the walk gives, both complexes
come from tight masks, and ``_ranks`` ranks the boundaries that decide
the map.  One of them is relative: the boundary of big's faces outside
small, whose columns drop their entries at small's faces.

When the generating set is, after exact verification, a product of
generating sets over disjoint variable blocks, the table is assembled as
the convolution of the factors' tables (a minimal free resolution of a
tensor product over disjoint variables is the tensor product of minimal
resolutions).  This keeps products such as powers of maximal ideals of
two blocks within reach without ever enumerating the product lattice.
Its Betti points count against the ``lattice`` cap for tables and verdicts
alike; only ``tor_vanishing`` builds complexes there, under the 24-variable limit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps, default_threads
from .core import Exponents, resolve_characteristic
from .errors import CapError, DomainError
from .ideals import MonomialIdeal, _divisible, _Packing, _row_keys, _sorted_unique, _unique_rows
from . import linalg
from .linalg import rank_exact, rank_inputs, rank_mod_p

# surviving points from which the walk uses the process pool.  betti_table, serial :
# threads=2 on 2 cores, Appendix A ideal, over GF(32003) | Q: I^2 (2,736 points)
# 0.11-0.13 : 0.11-0.13 s | 0.11-0.12 : 0.10-0.14 s; I^3 (6,264) 0.18-0.20 : 0.18-0.20 s
# | 0.16-0.20 : 0.17-0.20 s; m*I^2 (15,820) 0.83-0.87 : 0.65-0.70 s | 1.18-1.21 :
# 0.94-0.98 s.  At 10,000, walking I^2 and I^3 in the calling process raised the
# appendix-lattice benchmark's peak RSS from 210 to 283 MB (measured with the per-point walk)
_PARALLEL_MIN_POINTS = 1_000
# points x generators x variables of one chunk of the walk: bounds its pair and key arrays
_CHUNK_CELLS = 4_000_000
# the field in which the walk ranks a complex over Q first (2^31 - 1, a prime whose
# residues multiply inside int64); not 32003, so the Q and GF(32003) tables stay two
# different computations
_CERTIFYING_PRIME = 2**31 - 1
# faces from which a batch over Q is ranked over GF(_CERTIFYING_PRIME) first; a smaller
# one goes to rank_exact at once.  Batches of 1-32 complexes on 3-8 vertices, certified :
# exact: 4 faces 195 : 118 us, 57 faces 472 : 326 us, 152 faces 788 : 894 us, 276 faces
# 1.15 : 1.54 ms, 2,290 faces 7.3 : 27.5 ms
_CERTIFY_MIN_FACES = 200


# -- lcm lattice -------------------------------------------------------------


def _closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """Join-closure of the generator exponent vectors, one generator at a time.

    Adding a generator g to a join-closed set L gives L, g and the joins
    p v g for p in L.  Joins that give p back (g divides p) are dropped;
    the rest are deduplicated by sorting their packed keys.  Taking the
    generators in canonical order (degree descending) keeps the
    intermediate closures small.
    """
    packing = _Packing(gens.max(axis=0))
    closed = np.zeros((0, packing.nwords), dtype=np.int64)
    for g in packing.pack(gens):
        joins = packing.join(closed, g)
        joins = joins[(joins != closed).any(axis=1)]
        keys = _sorted_unique(_row_keys(np.concatenate([closed, joins, g[None, :]])))
        closed = keys.view(np.int64).reshape(len(keys), packing.nwords)
        if len(closed) > cap:
            raise CapError.over("lattice", f"lcm lattice reached {len(closed)} points", cap)
    return packing.unpack(closed)


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


def _contractible(points: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Points whose upper Koszul complex is a full simplex, in bulk.

    That happens iff some generator g divides b with g_v < b_v on all of
    supp(b), i.e. divides b minus the indicator of supp(b).  The point 0 is
    excluded: its complex is {empty face}, which has reduced homology.
    """
    return _divisible(gens, points - (points > 0)) & points.any(axis=1)


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


def _within_support_limit(size: int) -> None:
    """Refuse a lattice point on more than the walk's fixed limit of 24 variables.

    A tight mask packs into the low 24 bits of a (point, mask) key, and a
    complex on m vertices takes arrays of 2^m entries.
    """
    if size > 24:
        raise CapError(
            f"a lattice point reached a support of {size} variables, over the "
            "walk's fixed limit of 24 (not a FIBERLAB_CAPS cap; it cannot be raised)"
        )


def _tight_masks(chunk: np.ndarray, supp: np.ndarray, gens: np.ndarray, packing: _Packing,
                 packed_gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inclusion-minimal tight masks of every point of ``chunk``, in bulk.

    A generator g dividing b has the tight set {v : g_v = b_v} on supp(b),
    a bitmask over supp(b)'s variables renumbered as 0..m-1.  Returns the
    (point, mask) pairs that are minimal, sorted by point, then mask;
    ``packed_gens`` is ``packing.pack(gens)[None]``.
    """
    divides = packing.divides(packed_gens, packing.pack(chunk)[:, None, :])
    point, gen = np.divmod(np.flatnonzero(divides), len(gens))  # 2-D nonzero is slower
    place = np.where(supp, np.int64(1) << (np.cumsum(supp, axis=1) - supp), 0)
    mask = ((gens[gen] == chunk[point]) * place[point]).sum(axis=1)
    pair = _sorted_unique((point.astype(np.int64) << 24) | mask)
    point, mask = pair >> 24, pair & ((1 << 24) - 1)
    keep = _pairs_minimal(point, mask)
    return point[keep], mask[keep]


def _point_masks(points: np.ndarray, sides: tuple[np.ndarray, ...]):
    """The walk's chunks of ``points``, with the tight masks of each generator array of ``sides``.

    Yields (chunk, support sizes, [``_tight_masks`` pairs, one per side]),
    each chunk held to the support limit before its masks are packed.
    """
    top = functools.reduce(np.maximum, (side.max(axis=0) for side in sides), points.max(axis=0))
    packing = _Packing(top)
    packed = [packing.pack(side)[None] for side in sides]
    step = max(1, _CHUNK_CELLS // (sum(side.size for side in sides) + 1))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        supp = chunk > 0
        sizes = supp.sum(axis=1)
        _within_support_limit(int(sizes.max(initial=0)))
        yield chunk, sizes, [_tight_masks(chunk, supp, side, packing, packed_side)
                             for side, packed_side in zip(sides, packed)]


def _points_betti(
    points: np.ndarray, gens: np.ndarray, char: int, cache: dict
) -> dict[tuple[int, Exponents], int]:
    """Betti entries {(i, b): dim} at the given lattice points, in chunks.

    Each chunk is array work up to its distinct complexes: the dividing
    (point, generator) pairs by packed-word tests, their tight masks on
    supp(b), deduplicated by one sort and cut to the inclusion-minimal
    ones, and one key row per point, [m, masks..., -1 padding].  A cache
    lookup is made per distinct row; Python visits a point only to record
    its nonzero entries.
    """
    entries: dict[tuple[int, Exponents], int] = {}
    if len(points) == 0:
        return entries
    for chunk, sizes, [(point, mask)] in _point_masks(points, (gens,)):
        count = np.bincount(point, minlength=len(chunk))
        rows = np.full((len(chunk), count.max() + 1), -1, dtype=np.int64)
        rows[:, 0] = sizes
        rows[point, 1 + np.arange(len(point)) - np.searchsorted(point, point)] = mask
        _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
        keys = []
        pending: dict[int, dict[bytes, np.ndarray]] = {}  # uncached complexes by size
        for row in first.tolist():
            m, masks = int(sizes[row]), rows[row, 1 : 1 + count[row]]
            key = (m, masks.tobytes())
            keys.append(key)
            if key not in cache:
                pending.setdefault(m, {})[key[1]] = masks
        for m, group in sorted(pending.items(), reverse=True):
            for blob, dims in zip(group, _homology_from_masks(list(group.values()), m, char)):
                cache[(m, blob)] = dims
        found = [cache[key] for key in keys]
        hit = np.flatnonzero(np.array([bool(dims) for dims in found])[inverse])
        for b, u in zip(chunk[hit].tolist(), inverse[hit].tolist()):
            bt = tuple(b)
            for i, d in found[u].items():
                entries[(i, bt)] = d
    return entries


_WORKER_CTX: dict = {}


def _worker_init(gens: np.ndarray, char: int):
    # one homology cache per worker, shared by the slices it walks
    _WORKER_CTX.update(gens=gens, char=char, cache={})


def _worker_run(pts: np.ndarray):
    return _points_betti(pts, _WORKER_CTX["gens"], _WORKER_CTX["char"], _WORKER_CTX["cache"])


def _multigraded(gens: np.ndarray, char: int, caps: Caps,
                 threads: int) -> dict[tuple[int, Exponents], int]:
    """Multigraded Betti numbers of the ideal generated by ``gens`` (minimal).

    A product's Betti points, as many as the product of its factors'
    counts, are held to the ``lattice`` cap (the product's lattice has at
    least as many points) before the factors' tables are convolved.
    """
    factors = _product_split(gens)
    if factors is not None:
        tables = [(cols, _multigraded(sub, char, caps, threads)) for cols, sub in factors]
        count = math.prod(len({b for _, b in local}) for _, local in tables)
        if count > caps.lattice:
            raise CapError.over(
                "lattice", f"a product over disjoint variable blocks has {count} Betti points",
                caps.lattice)
        return _convolve(tables, gens.shape[1])
    points = _closure(gens, caps.lattice)
    points = points[~_contractible(points, gens)]
    # largest support first: the largest complexes meet the dense limit before any rank
    points = points[np.argsort(-(points > 0).sum(axis=1), kind="stable")]
    if threads > 1 and len(points) >= _PARALLEL_MIN_POINTS:
        slices = [s for s in np.array_split(points, threads * 4) if len(s)]
        entries: dict[tuple[int, Exponents], int] = {}
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_worker_init,
            initargs=(gens, char),
        ) as pool:
            for part in pool.map(_worker_run, slices):
                entries.update(part)
        return entries
    return _points_betti(points, gens, char, {})


# -- exact product factorization --------------------------------------------


def _product_split(gens: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Split minimal generators into a verified product over disjoint blocks.

    Returns [(column indices, projected minimal generators), ...] or None.
    The candidate partition comes from pairwise marginal tests; it is then
    verified exactly: the generator set must be the full cartesian product
    of its block projections.  Only a verified split is ever used.
    """
    k, n = gens.shape
    if k < 4:
        return None
    active = [i for i in range(n) if gens[:, i].any()]
    if len(active) < 2:
        return None
    parent = {i: i for i in active}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cols = {i: gens[:, i] for i in active}
    uniq = {i: len(_sorted_unique(cols[i])) for i in active}
    for a_pos in range(len(active)):
        for b_pos in range(a_pos + 1, len(active)):
            a, b = active[a_pos], active[b_pos]
            if find(a) == find(b):
                continue
            pairs = len(_unique_rows(gens[:, [a, b]]))
            if pairs != uniq[a] * uniq[b]:
                parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for i in active:
        groups.setdefault(find(i), []).append(i)
    if len(groups) < 2:
        return None
    blocks = [sorted(g) for g in groups.values()]
    blocks.sort()
    projections = []
    count = 1
    for block in blocks:
        sub = _unique_rows(gens[:, block])
        projections.append((np.array(block), sub))
        count *= len(sub)
    if count != k:
        return None
    return projections


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
    """Multigraded Betti numbers of a nonzero monomial ideal."""
    if ideal.is_zero():
        raise DomainError("Betti table of the zero ideal")
    char = resolve_characteristic(ideal.ring, characteristic)
    threads = default_threads() if threads is None else max(1, threads)
    entries = _multigraded(ideal.array(), char, caps, threads)
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
    variables, which a product's convolved points obey too.  They are
    taken by i, all of one i together, and each map is decided by ranks
    alone (``_maps_nonzero``), once per i and distinct pair of complexes,
    keyed as the walk keys one.
    """
    char = _inclusion_field(small, big, characteristic)
    # Tor_0 is spanned by the minimal generators, so the map on it is nonzero
    # exactly at small's generators that are big's too
    shared = set(small.gens).intersection(big.gens)
    if shared:
        return False, (0, min(map(sum, shared)))
    if len(small.gens) == 1:  # a principal ideal is free: it has no Tor above Tor_0
        return True, None
    gens, big_gens = small.array(), big.array()
    entries = [key for key in _multigraded(gens, char, caps, 1) if key[0] > 0]
    # largest support first: a point past the support limit is refused in the first chunk
    points = np.array(sorted({b for _, b in entries}, key=lambda b: b.count(0)), dtype=np.int64)
    pairs = {}  # point -> (key, (small's masks, big's masks))
    for chunk, sizes, sides in _point_masks(points, (gens, big_gens)):
        cuts = [np.split(mask, np.searchsorted(point, np.arange(1, len(chunk))))
                for point, mask in sides]
        for b, m, *pair in zip(chunk.tolist(), sizes.tolist(), *cuts):
            pairs[tuple(b)] = ((m, *(masks.tobytes() for masks in pair)), pair)
    by_degree: dict[int, list[tuple[int, Exponents]]] = {}
    for i, b in entries:
        by_degree.setdefault(i, []).append((sum(b), b))
    for i, level in sorted(by_degree.items()):
        distinct: dict[int, dict] = {}  # by support size, {key: pair}
        for _, b in level:
            key, pair = pairs[b]
            distinct.setdefault(key[0], {})[key] = pair
        nonzero = {}
        for m, group in distinct.items():
            nonzero.update(zip(group, _maps_nonzero(list(group.values()), m, i, char).tolist()))
        witnesses = [j for j, b in level if nonzero[pairs[b][0]]]
        if witnesses:
            return False, (i, min(witnesses))
    return True, None
