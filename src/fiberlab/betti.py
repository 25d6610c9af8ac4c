"""Multigraded Betti numbers via homology of upper Koszul complexes.

For a monomial ideal the only multidegrees carrying Betti numbers are the
joins (componentwise maxima) of generator degrees.  The engine closes the
generator degrees under join, then computes reduced simplicial homology of
the upper Koszul complex at every lattice point, over Q (fraction-free
integer elimination) or GF(p).

The complex at a point b is a union of full simplices: a squarefree tau
below b is a face iff x^(b-tau) lies in the ideal, which happens iff tau
avoids the "tight set" {v : g_v = b_v} of some generator g dividing x^b.
This makes face enumeration, cone detection, and full-simplex pruning
cheap bitmask work; boundary ranks are only computed at points that
survive the prunes.

When the generating set is, after exact verification, a product of
generating sets over disjoint variable blocks, the table is assembled as
the convolution of the factors' tables (a minimal free resolution of a
tensor product over disjoint variables is the tensor product of minimal
resolutions).  This keeps products such as powers of maximal ideals of
two blocks within reach without ever enumerating the product lattice.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps, default_threads
from .core import Exponents, Monomial, resolve_characteristic
from .errors import CapError, DomainError
from .ideals import MonomialIdeal
from .linalg import rank_input, rank_mod_p, rank_exact

_INT = np.int32
_PARALLEL_MIN_POINTS = 60_000


# -- lcm lattice -------------------------------------------------------------


@dataclass(frozen=True)
class LcmLattice:
    ideal: MonomialIdeal
    points: tuple[Exponents, ...]


def _pack_weights(gens: np.ndarray) -> np.ndarray | None:
    """Per-column place values packing any join of generators into an int64."""
    maxexp = gens.max(axis=0)
    bits = np.where(maxexp > 0, np.ceil(np.log2(maxexp + 1)).astype(np.int64), 0)
    bits = np.maximum(bits, (maxexp > 0).astype(np.int64))
    if bits.sum() > 62:
        return None
    offsets = np.concatenate([[0], np.cumsum(bits[:-1])])
    return (np.int64(1) << offsets.astype(np.int64)) * (maxexp > 0)


def _closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """Join-closure of the generator exponent vectors (BFS, deduplicated).

    Joins never exceed the columnwise maximum of the generators, so each
    point packs into a single int64 key, making deduplication cheap.
    """
    nvars = gens.shape[1]
    weights = _pack_weights(gens)

    def keys_of(arr: np.ndarray):
        if weights is not None:
            return (arr.astype(np.int64) @ weights).tolist()
        w = arr.shape[1] * arr.itemsize
        buf = np.ascontiguousarray(arr).tobytes()
        return [buf[i * w : (i + 1) * w] for i in range(len(arr))]

    pts = np.unique(gens, axis=0)
    seen = set(keys_of(pts))
    frontier = pts
    chunks = [pts]
    while len(frontier):
        new_rows = []
        step = max(1, 6_000_000 // (len(gens) * nvars + 1))
        for lo in range(0, len(frontier), step):
            part = frontier[lo : lo + step]
            cand = np.maximum(part[:, None, :], gens[None, :, :]).reshape(-1, nvars)
            fresh = []
            for i, key in enumerate(keys_of(cand)):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            if fresh:
                new_rows.append(cand[fresh])
            if len(seen) > cap:
                raise CapError(f"lcm lattice exceeds cap of {cap} points")
        if not new_rows:
            break
        frontier = np.concatenate(new_rows) if len(new_rows) > 1 else new_rows[0]
        chunks.append(frontier)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


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


# -- homology of one lattice point -------------------------------------------

_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def _popcounts(m: int) -> np.ndarray:
    table = _POPCOUNT_CACHE.get(m)
    if table is None:
        table = np.array([bin(i).count("1") for i in range(1 << m)], dtype=np.int8)
        _POPCOUNT_CACHE[m] = table
    return table


def _boundary_rank(faces_prev: np.ndarray, faces_cur: np.ndarray, char: int) -> int:
    """Rank of the simplicial boundary map from cardinality-k to (k-1) faces."""
    if len(faces_prev) == 0 or len(faces_cur) == 0:
        return 0
    index = {int(f): i for i, f in enumerate(faces_prev)}
    triplets = []
    for col, face in enumerate(faces_cur):
        face = int(face)
        sign = 1
        mask = face
        while mask:
            bit = mask & -mask
            triplets.append((index[face ^ bit], col, sign))
            sign = -sign
            mask ^= bit
    matrix = rank_input(triplets, (len(faces_prev), len(faces_cur)), char)
    return rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)


def _homology_from_masks(masks: np.ndarray, m: int, char: int) -> dict[int, int]:
    """Reduced homology dimensions of the union of simplices comp(mask).

    ``masks`` are the tight sets of the dividing generators, as bitmasks on
    the m support variables; the faces are exactly the tau disjoint from
    some mask.  Returns {i: dim H-tilde_(i-1)} with zero entries omitted.
    """
    if len(masks) == 0:
        return {}
    if m == 0:
        return {0: 1}  # complex {empty face}: one unit of reduced homology below dim 0
    if (masks == 0).any():
        return {}  # full simplex, contractible
    idx = np.arange(1 << m, dtype=np.int64)
    faces = ((idx[:, None] & masks[None, :]) == 0).any(axis=1)
    # cone detection: an apex vertex kills all reduced homology
    for v in range(m):
        bit = 1 << v
        base = idx[(idx & bit) == 0]
        if not (faces[base] & ~faces[base | bit]).any():
            return {}
    popc = _popcounts(m)
    face_idx = idx[faces]
    cards = popc[face_idx]
    by_card = [face_idx[cards == k] for k in range(m + 1)]
    counts = [len(f) for f in by_card]
    ranks = [0] * (m + 2)
    for k in range(1, m + 1):
        ranks[k] = _boundary_rank(by_card[k - 1], by_card[k], char)
    out = {}
    for i in range(m + 1):
        dim = counts[i] - ranks[i] - ranks[i + 1]
        if dim:
            out[i] = dim
    return out


# -- whole-table computation ------------------------------------------------


def _points_betti(
    points: np.ndarray, gens: np.ndarray, char: int, cache: dict
) -> dict[tuple[int, Exponents], int]:
    entries: dict[tuple[int, Exponents], int] = {}
    nvars = points.shape[1]
    if nvars > 62:
        raise CapError(f"{nvars} variables exceed the bitmask packing limit")
    full_weights = np.int64(1) << np.arange(nvars, dtype=np.int64)
    step = max(1, 4_000_000 // (len(gens) * nvars + 1))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        divides = (gens[None, :, :] <= chunk[:, None, :]).all(axis=2)
        # tight bits over all variables at once; off-support bits are set for
        # every divisor and disappear when compressed to the support below
        tight_full = (gens[None, :, :] == chunk[:, None, :]).astype(np.int64) @ full_weights
        for row in range(len(chunk)):
            b = chunk[row]
            masks_full = np.unique(tight_full[row][divides[row]])
            supp = np.nonzero(b)[0]
            m = len(supp)
            if m > 24:
                raise CapError(f"support of size {m} exceeds the bitmask limit")
            local_w = np.int64(1) << np.arange(m, dtype=np.int64)
            masks = np.unique(((masks_full[:, None] >> supp[None, :]) & 1) @ local_w)
            key = (m, masks.tobytes())
            dims = cache.get(key)
            if dims is None:
                dims = _homology_from_masks(masks, m, char)
                cache[key] = dims
            if dims:
                bt = tuple(int(e) for e in b)
                for i, d in dims.items():
                    entries[(i, bt)] = d
    return entries


_WORKER_CTX: dict = {}


def _worker_init(gens_bytes: bytes, shape: tuple[int, int], char: int):
    _WORKER_CTX["gens"] = np.frombuffer(gens_bytes, dtype=_INT).reshape(shape).copy()
    _WORKER_CTX["char"] = char
    # one homology cache per worker, shared by the slices it walks
    _WORKER_CTX["cache"] = {}


def _worker_run(payload: tuple[bytes, tuple[int, int]]):
    data, shape = payload
    pts = np.frombuffer(data, dtype=_INT).reshape(shape).copy()
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
    if threads > 1 and len(points) >= _PARALLEL_MIN_POINTS:
        slices = np.array_split(points, threads * 4)
        payloads = [(s.tobytes(), s.shape) for s in slices if len(s)]
        entries: dict[tuple[int, Exponents], int] = {}
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_worker_init,
            initargs=(gens.tobytes(), gens.shape, char),
        ) as pool:
            for part in pool.map(_worker_run, payloads):
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
            pairs = len(np.unique(gens[:, [a, b]], axis=0))
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
        sub = np.unique(gens[:, block], axis=0)
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
