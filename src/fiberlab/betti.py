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

The walk collects each chunk's uncached complexes and computes their
homology together, grouped by support size m.  One (complexes x 2^m)
boolean array holds a group's faces.  A complex's boundary from k- to
(k-1)-faces is the full simplex's, restricted to the complex's own faces:
every column keeps all its entries, since a complex holds the facets of
its faces.  The walk only computes where those entries go: ``linalg.
rank_inputs``, which the Koszul engine uses too, lays out the boundaries
of one k for ``rank_mod_p`` or ``rank_exact``, largest k first, so a GF(p)
batch over the dense limit is refused before any rank is spent on it.  A
fixed cell budget splits the face arrays and the stacks.

Boundary ranks are computed only for complexes that are not cones (a
vertex in no minimal tight set lies in every facet).  The closure and the
bulk prune run on the packed exponent rows of ``ideals`` (int64 words,
deduplicated by sorting; ``_divisible`` for the prune).

When the generating set is, after exact verification, a product of
generating sets over disjoint variable blocks, the table is assembled as
the convolution of the factors' tables (a minimal free resolution of a
tensor product over disjoint variables is the tensor product of minimal
resolutions).  This keeps products such as powers of maximal ideals of
two blocks within reach without ever enumerating the product lattice.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps, default_threads
from .core import Exponents, Monomial, resolve_characteristic
from .errors import CapError, DomainError
from .ideals import MonomialIdeal, _divisible, _Packing, _row_keys, _sorted_unique, _unique_rows
from . import linalg
from .linalg import rank_exact, rank_inputs, rank_mod_p

# surviving points from which the walk uses the process pool.  Serial : threads=2 on
# 2 cores, Appendix A ideal, over GF(32003) | Q: I^2 (2,736 points) 0.13-0.39 : 0.19-0.29 s
# | 1.2-1.4 : 1.2-1.5 s; I^3 (6,264) 0.28-0.50 : 0.25-0.50 s | 0.73-0.86 : 0.63-0.64 s;
# m*I^2 (15,820) 1.2-1.6 : 0.91-1.09 s over GF(32003).  At 10,000, walking I^2 and I^3 in
# the calling process raised the appendix-lattice benchmark's peak RSS from 210 to 283 MB
_PARALLEL_MIN_POINTS = 1_000


# -- lcm lattice -------------------------------------------------------------


@dataclass(frozen=True)
class LcmLattice:
    ideal: MonomialIdeal
    points: tuple[Exponents, ...]


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


def lcm_lattice(ideal: MonomialIdeal, caps: Caps = DEFAULT_CAPS) -> LcmLattice:
    if ideal.is_zero():
        raise DomainError("lcm lattice of the zero ideal")
    pts = _closure(ideal.array(), caps.lattice)
    return LcmLattice(ideal, tuple(sorted(tuple(int(e) for e in row) for row in pts)))


# -- upper Koszul complexes --------------------------------------------------


@dataclass(frozen=True)
class UpperKoszul:
    """The simplicial complex at a multidegree, on the variables of supp(b)."""

    vertices: tuple[str, ...]
    faces: tuple[int, ...]  # bitmasks over ``vertices``; 0 is the empty face

    def face_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            tuple(v for j, v in enumerate(self.vertices) if mask >> j & 1)
            for mask in self.faces
        )


def upper_koszul(ideal: MonomialIdeal, b: Exponents | Monomial) -> UpperKoszul:
    if isinstance(b, Monomial):
        b = b.exponents
    ring = ideal.ring
    supp = [i for i, e in enumerate(b) if e > 0]
    m = len(supp)
    faces = []
    for mask in range(1 << m):
        probe = list(b)
        for j, i in enumerate(supp):
            if mask >> j & 1:
                probe[i] -= 1
        if ideal.member(tuple(probe)):
            faces.append(mask)
    return UpperKoszul(tuple(ring.variables[i] for i in supp), tuple(faces))


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

    ``owner`` and ``face`` list the batch's k-faces by complex; complex b
    has ``ncols[b]`` of them and ``nrows[b]`` (k-1)-faces, and face g is
    row or column ``index[b, g]``.  The column of a k-face holds (-1)^t at
    the facet that drops its t-th lowest vertex, as in the full simplex.
    """
    rows = np.empty((len(face), k), dtype=np.int32)
    rest = face
    for t in range(k):
        low = rest & -rest
        rows[:, t] = index[owner, face ^ low]
        rest = rest ^ low
    sign = np.ones((len(face), k), dtype=np.int8)
    sign[:, 1::2] = -1
    ranks = np.zeros(len(ncols), dtype=np.int64)
    for members, matrix in rank_inputs(np.repeat(owner, k), rows.ravel(),
                                       np.repeat(index[owner, face], k), sign.ravel(),
                                       nrows, ncols, char):
        ranks[members] = rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)
    return ranks


def _homology_from_masks(batch: list[np.ndarray], m: int, char: int) -> list[dict[int, int]]:
    """Reduced homology dimensions of complexes on m vertices, computed together.

    Complex b is the union of the simplices comp(mask) for the masks in
    ``batch[b]``: the tight sets of the dividing generators, as bitmasks on
    the m support variables.  Returns, for each, {i: dim H-tilde_(i-1)}
    with zero entries omitted.
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
        owner, face = np.nonzero(_faces([batch[b] for b in part], m))
        # the faces by cardinality, then complex, then bitmask; a face's
        # place among those of its complex and cardinality is its index
        group = _popcounts(m)[face].astype(np.int64) * len(part) + owner
        order = np.argsort(group, kind="stable")
        owner, face = owner[order], face[order]
        counts = np.bincount(group, minlength=(m + 1) * len(part))
        starts = np.cumsum(counts) - counts
        index = np.zeros((len(part), 1 << m), dtype=np.int32)
        index[owner, face] = np.arange(len(face)) - np.repeat(starts, counts)
        counts, starts = counts.reshape(m + 1, len(part)), starts.reshape(m + 1, len(part))
        ranks = np.zeros((m + 2, len(part)), dtype=np.int64)
        # the largest boundary first: a batch over the dense limit is refused at once
        cells = (counts[:-1] * counts[1:]).max(axis=1)
        for k in np.argsort(-cells, kind="stable")[: np.count_nonzero(cells)] + 1:
            span = slice(starts[k, 0], starts[k, 0] + counts[k].sum())
            ranks[k] = _boundary_ranks(owner[span], face[span], index, counts[k - 1],
                                       counts[k], k, char)
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


def _minimal_masks(masks: np.ndarray) -> np.ndarray:
    """The inclusion-minimal distinct masks, sorted.

    A face that avoids a mask also avoids every subset of it, so masks
    containing another mask add no faces; dropping them makes complexes
    that differ only in such masks share one cache key.
    """
    masks = _sorted_unique(masks)
    contains = (masks[:, None] & masks[None, :]) == masks[None, :]
    return masks[contains.sum(axis=1) == 1]


def _points_betti(
    points: np.ndarray, gens: np.ndarray, char: int, cache: dict
) -> dict[tuple[int, Exponents], int]:
    entries: dict[tuple[int, Exponents], int] = {}
    step = max(1, 4_000_000 // (gens.size + 1))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        supp = chunk > 0
        sizes = supp.sum(axis=1)
        if sizes.max(initial=0) > 24:
            raise CapError(
                f"a lattice point reached a support of {sizes.max()} variables, over the "
                "walk's fixed limit of 24 (not a FIBERLAB_CAPS cap; it cannot be raised)"
            )
        divides = (gens[None, :, :] <= chunk[:, None, :]).all(axis=2)
        # tight bits {v : g_v = b_v} on supp(b), renumbered as 0..m-1
        place = np.int64(1) << (np.cumsum(supp, axis=1) - supp)
        tight = (gens[None, :, :] == chunk[:, None, :]) & supp[:, None, :]
        local = (tight * place[:, None, :]).sum(axis=2)
        keys = []
        pending: dict[int, dict[bytes, np.ndarray]] = {}  # uncached complexes by size
        for row in range(len(chunk)):
            m = int(sizes[row])
            masks = _minimal_masks(local[row][divides[row]])
            key = (m, masks.tobytes())
            keys.append(key)
            if key not in cache:
                pending.setdefault(m, {})[key[1]] = masks
        for m, group in sorted(pending.items()):
            for blob, dims in zip(group, _homology_from_masks(list(group.values()), m, char)):
                cache[(m, blob)] = dims
        for row, key in enumerate(keys):
            dims = cache[key]
            if dims:
                bt = tuple(int(e) for e in chunk[row])
                for i, d in dims.items():
                    entries[(i, bt)] = d
    return entries


_WORKER_CTX: dict = {}


def _worker_init(gens: np.ndarray, char: int):
    # one homology cache per worker, shared by the slices it walks
    _WORKER_CTX.update(gens=gens, char=char, cache={})


def _worker_run(pts: np.ndarray):
    return _points_betti(pts, _WORKER_CTX["gens"], _WORKER_CTX["char"], _WORKER_CTX["cache"])


def _multigraded(
    gens: np.ndarray, char: int, caps: Caps, threads: int
) -> dict[tuple[int, Exponents], int]:
    """Multigraded Betti numbers of the ideal generated by ``gens`` (minimal)."""
    factors = _product_split(gens)
    if factors is not None:
        tables = []
        for cols, sub in factors:
            local = _multigraded(sub, char, caps, threads)
            tables.append((cols, sub.shape[1], local))
        return _convolve(tables, gens.shape[1])
    points = _closure(gens, caps.lattice)
    points = points[~_contractible(points, gens)]
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
    uniq = {i: len(np.unique(cols[i])) for i in active}
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
    tables: list[tuple[np.ndarray, int, dict[tuple[int, Exponents], int]]], nvars: int
) -> dict[tuple[int, Exponents], int]:
    acc: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * nvars): 1}
    for cols, _, local in tables:
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
