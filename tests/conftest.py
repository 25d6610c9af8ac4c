"""Shared fixtures and small oracles for the test suite.

Most oracles here are deliberately self-contained (plain fractions, brute
enumeration) so that engine results are checked against code that shares
nothing with the production paths.  The last section holds the oracles
built on engine internals that no production path calls: the Koszul
strands' Tor table and Tor-vanishing verdicts, the full lcm lattice, the
closure and the walk on exponent rows, the upper Koszul complex of one
point, the lattice walk one point at a time, the product split by one
distinct-row count per column pair, and componentwise linearity checked
at every degree up to the regularity.
"""

from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fiberlab import (DEFAULT_CAPS, Caps, DomainError, MonomialIdeal, Ring, component_ideal,
                      parse_monomial, reg_of)
from fiberlab import betti, koszul
from fiberlab.errors import CapError
from fiberlab.ideals import _Packing, _row_keys, _sorted_unique, _unique_rows
from fiberlab.linalg import rank_exact, rank_inputs, rank_mod_p


@pytest.fixture(autouse=True)
def cold_homology_cache():
    """Each test starts with the process's homology caches empty.

    A complex cached by an earlier test would skip the ranks, refusals and
    spies that a test watches.
    """
    betti._CACHES.clear()


@pytest.fixture
def ring_xy():
    return Ring("R", ("x", "y"))

@pytest.fixture
def ring_xyz():
    return Ring("R", ("x", "y", "z"))


@pytest.fixture
def appendix_ring():
    return Ring("R", ("a", "b", "c", "d", "x", "y", "z", "t"))


# -- the CLI as a subprocess ------------------------------------------------


def run_fiberlab(*argv: str, env: dict[str, str] | None = None, text: bool = True,
                 address_space_kib: int | None = None,
                 timeout: float = 600) -> subprocess.CompletedProcess:
    """Run ``python -m fiberlab.cli *argv`` and capture its output.

    The child inherits this process's environment, so ``PYTHONPATH`` and the
    interpreter setup carry over, minus every ``FIBERLAB_*`` setting of the
    caller; only the ``env`` overrides given here are applied on top.  A
    child that cannot import ``fiberlab`` fails the test with that cause
    rather than with its exit code, which would read as a verdict.
    ``address_space_kib`` sets RLIMIT_AS in the child only; a child still
    running after ``timeout`` seconds is killed and fails the test.
    """
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("FIBERLAB_")}
    child_env.update(env or {})

    def limit():
        limit_bytes = address_space_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    result = subprocess.run(
        [sys.executable, "-m", "fiberlab.cli", *argv],
        capture_output=True, text=text, timeout=timeout, env=child_env,
        preexec_fn=None if address_space_kib is None else limit,
    )
    stderr = result.stderr if text else result.stderr.decode(errors="replace")
    if "No module named 'fiberlab'" in stderr:
        pytest.fail(f"the CLI subprocess cannot import fiberlab:\n{stderr}")
    return result


def ideal_of(ring: Ring, *texts: str) -> MonomialIdeal:
    return MonomialIdeal.from_monomials([parse_monomial(ring, t) for t in texts])


def random_ideal(rng, ring: Ring, max_gens: int = 5, max_deg: int = 4,
                 min_deg: int = 1) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(min_deg, max_deg)
        vec = [0] * ring.nvars
        for _ in range(d):
            vec[rng.randrange(ring.nvars)] += 1
        gens.append(tuple(vec))
    return MonomialIdeal.from_exponents(ring, gens)


# -- independent reduced simplicial homology over Q --------------------------


def _rank_fraction(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    while m and col < cols:
        piv = next((i for i, r in enumerate(m) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        row = m.pop(piv)
        rank += 1
        inv = Fraction(1) / row[col]
        row = [v * inv for v in row]
        m = [
            [a - r[col] * b for a, b in zip(r, row)] if r[col] != 0 else r
            for r in m
        ]
        col += 1
    return rank


def reduced_homology_dims(faces: list[frozenset]) -> dict[int, int]:
    """{i: dim H-tilde_(i-1)} of a simplicial complex given as explicit faces.

    Faces are frozensets of vertex labels; the empty face must be listed
    if present.  Rational coefficients, textbook boundary matrices.
    """
    faces = sorted(set(map(frozenset, faces)), key=lambda f: (len(f), sorted(f)))
    if not faces:
        return {}
    by_card: dict[int, list[frozenset]] = {}
    for f in faces:
        by_card.setdefault(len(f), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        source = by_card.get(k, [])
        target = by_card.get(k - 1, [])
        index = {f: i for i, f in enumerate(target)}
        rows = [[Fraction(0)] * len(source) for _ in target]
        for c, f in enumerate(source):
            verts = sorted(f)
            for pos, v in enumerate(verts):
                sub = f - {v}
                rows[index[sub]][c] = Fraction(-1 if pos % 2 else 1)
        ranks[k] = _rank_fraction(rows) if target and source else 0
    out = {}
    for k in range(0, top + 1):
        dim = len(by_card.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out


def exact_rank(triplets, shape: tuple[int, int]) -> int:
    """Rank over Q of the matrix with (row, col, value) ``triplets``, laid out
    by ``rank_inputs`` as the engines lay out theirs."""
    if not triplets:
        return 0
    row, col, value = zip(*triplets)
    return sum(rank_exact(rows) for _, rows in
               rank_inputs([0] * len(triplets), row, col, value, [shape[0]], [shape[1]], 0))


def rank_mod_p_oracle(matrix, p: int) -> int:
    """Rank over GF(p) by textbook row reduction on Python ints."""
    rows = [[int(v) % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pivot = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


# -- brute-force monomial counting -------------------------------------------


def all_monomials(nvars: int, degree: int, indices: tuple[int, ...] | None = None):
    """Every degree-``degree`` monomial in the ``indices`` variables (all by default),
    one per multiset of variables, in ``combinations_with_replacement`` order."""
    for combo in itertools.combinations_with_replacement(
            range(nvars) if indices is None else indices, degree):
        vec = [0] * nvars
        for i in combo:
            vec[i] += 1
        yield tuple(vec)


def count_in_ideal_bruteforce(ideal: MonomialIdeal, degree: int) -> int:
    return sum(
        1
        for mono in all_monomials(ideal.ring.nvars, degree)
        if any(all(g[i] <= mono[i] for i in range(len(mono))) for g in ideal.gens)
    )


# -- oracles built on engine internals ---------------------------------------


def koszul_tor(ideal: MonomialIdeal, char: int) -> dict[tuple[int, int], int]:
    """{(i, j): dim Tor_i(k, ideal)_j}, nonzero entries only, from the Koszul strands.

    The strands enumerate (monomial, variable subset) pairs where the
    lattice engine walks lcm-lattice points, so the two tables are
    computed independently and must agree.
    """
    members: dict = {}
    table = {}
    for j in range(ideal.indeg(), koszul.max_lattice_degree(ideal) + 1):
        for i, _, dim in koszul._StrandComplex(ideal, j, members).homology(char):
            if dim:
                table[(i, j)] = dim
    return table


def _strand_rank(strand, i: int, char: int, rows: list[int]) -> int:
    """Rank of the strand's boundary from position i, cut to the ``rows`` of position i-1."""
    renumber = {r: k for k, r in enumerate(rows)}
    trips = [(renumber[r], c, s) for r, c, s in strand.boundary_triplets(i) if r in renumber]
    if not trips:
        return 0
    (_, matrix), = rank_inputs([0] * len(trips), *zip(*trips), [len(rows)], [strand.dim(i)], char)
    return int(rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)[0])


def tor_vanishing_by_strands(small: MonomialIdeal, big: MonomialIdeal,
                             char: int | None = None) -> tuple[bool, tuple[int, int] | None]:
    """``tor_vanishing`` on the Koszul strands, as the package computed it before the
    lattice engine took it over: the least (i, j) whose strand map is nonzero.

    Ranks decide it, with no basis built: the map on H_i of strand j has
    rank dim Z_i(small) minus dim(B_i(big) & C_i(small)), the cycles of
    small that die in big, and that intersection has dimension
    rank D - rank PD, where D is big's boundary into position i and P
    deletes the rows of small's basis.  A witness with i = 0 is the least
    there can be: no later strand is built.
    """
    char, strands = koszul._strands(small, big, char)
    witness = None
    for j, s_small, s_big in strands:
        for i, cycles, dim in s_small.homology(char):
            if not dim or (witness is not None and i >= witness[0]):
                continue
            outside = [r for r, elt in enumerate(s_big.basis[i]) if elt not in s_small.index[i]]
            killed = (s_big.boundary_rank(i + 1, char)
                      - _strand_rank(s_big, i + 1, char, outside))
            if cycles > killed:
                witness = (i, j)
        if witness is not None and witness[0] == 0:
            break
    return witness is None, witness


def full_closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """Every point of the lcm lattice, contractible ones included, one generator at a time.

    Adding a generator g to a join-closed set L gives L, g and the joins
    p v g for p in L; those that give p back are dropped, the rest
    deduplicated by sorting their packed keys.  The points come sorted by
    packed key, as ``betti._closure``'s do; more than ``cap`` of them are
    refused.
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


def closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """``betti._closure`` on exponent rows: the survivors' exponents, in the closure's order,
    from the table's packing of ``gens``."""
    table = betti._PackedGens(_Packing(gens.max(axis=0)), gens)
    return table.packing.unpack(betti._closure(table, cap))


# the lattice cap of ``walk``'s closure: it bounds the box a closure may count over
WALK_BOX_CELLS = 1_000_000


def walk(points: np.ndarray, gens: np.ndarray, char: int,
         cache: dict) -> dict[tuple[int, tuple[int, ...]], int]:
    """``betti._points_betti`` on exponent rows, packed on the packing of ``points`` and
    ``gens`` together, after the table's closure, as a table is walked: a closure that
    counts over its box (one of at most ``WALK_BOX_CELLS`` cells) leaves that box's
    indicator of the ideal for the walk to read."""
    table = betti._PackedGens(betti._walk_packing(points, (gens,)), gens)
    betti._closure(table, WALK_BOX_CELLS)
    return betti._points_betti(points, table.packing.pack(points), table, char, cache)


def contractible(points: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """``betti._contractible`` on exponent rows: which points carry a full simplex."""
    packing = _Packing(np.maximum(gens.max(axis=0), points.max(axis=0, initial=0)))
    return betti._contractible(packing.pack(points), packing, packing.pack(gens))


def lcm_lattice(ideal: MonomialIdeal, caps: Caps = DEFAULT_CAPS) -> tuple[tuple[int, ...], ...]:
    """Every point of the lcm lattice, contractible ones included, sorted."""
    if ideal.is_zero():
        raise DomainError("lcm lattice of the zero ideal")
    return tuple(sorted(tuple(int(e) for e in row)
                        for row in full_closure(ideal.array(), caps.lattice)))


@dataclass(frozen=True)
class UpperKoszul:
    """The simplicial complex at a multidegree, on the variables of supp(b)."""

    vertices: tuple[str, ...]
    faces: tuple[int, ...]  # bitmasks over ``vertices``; 0 is the empty face

    def face_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(v for j, v in enumerate(self.vertices) if mask >> j & 1)
                     for mask in self.faces)


def upper_koszul(ideal: MonomialIdeal, b: tuple[int, ...]) -> UpperKoszul:
    """The squarefree tau below b with x^(b - tau) in the ideal, by membership tests."""
    supp = [i for i, e in enumerate(b) if e > 0]
    faces = []
    for mask in range(1 << len(supp)):
        probe = list(b)
        for j, i in enumerate(supp):
            if mask >> j & 1:
                probe[i] -= 1
        if ideal.member(tuple(probe)):
            faces.append(mask)
    return UpperKoszul(tuple(ideal.ring.variables[i] for i in supp), tuple(faces))


def minimal_masks(masks: np.ndarray) -> np.ndarray:
    """The inclusion-minimal distinct masks, sorted, by an all-pairs comparison."""
    masks = _sorted_unique(masks)
    contains = (masks[:, None] & masks[None, :]) == masks[None, :]
    return masks[contains.sum(axis=1) == 1]


def walk_per_point(points: np.ndarray, gens: np.ndarray, char: int,
                   cache: dict) -> dict[tuple[int, tuple[int, ...]], int]:
    """The lattice walk one point at a time, as ``betti._points_betti`` did before
    its bulk version: divisors and tight sets by points x generators x variables
    broadcasts, ``minimal_masks`` and a cache lookup per point.  The homology of
    each chunk's uncached complexes comes from ``betti._homology_from_masks``.
    """
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    step = max(1, betti._CHUNK_CELLS // (gens.size + 1))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        supp = chunk > 0
        sizes = supp.sum(axis=1)
        divides = (gens[None, :, :] <= chunk[:, None, :]).all(axis=2)
        place = np.int64(1) << (np.cumsum(supp, axis=1) - supp)
        tight = (gens[None, :, :] == chunk[:, None, :]) & supp[:, None, :]
        local = (tight * place[:, None, :]).sum(axis=2)
        keys = []
        pending: dict[int, dict[bytes, np.ndarray]] = {}
        for row in range(len(chunk)):
            m = int(sizes[row])
            masks = minimal_masks(local[row][divides[row]])
            key = (m, masks.tobytes())
            keys.append(key)
            if key not in cache:
                pending.setdefault(m, {})[key[1]] = masks
        for m, group in sorted(pending.items(), reverse=True):
            for blob, dims in zip(group, betti._homology_from_masks(list(group.values()), m, char)):
                cache[(m, blob)] = dims
        for row, key in enumerate(keys):
            for i, d in cache[key].items():
                entries[(i, tuple(int(e) for e in chunk[row]))] = d
    return entries


def product_split_pairwise(gens: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """``betti._product_split`` as it was before its one-sort count: the candidate
    partition joins two columns when ``_unique_rows`` of the pair finds fewer rows
    than the product of their distinct values, one pair at a time, skipping pairs
    already joined; the split is kept iff it is the full cartesian product."""
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

    uniq = {i: len(_sorted_unique(gens[:, i])) for i in active}
    for a_pos in range(len(active)):
        for b_pos in range(a_pos + 1, len(active)):
            a, b = active[a_pos], active[b_pos]
            if find(a) == find(b):
                continue
            if len(_unique_rows(gens[:, [a, b]])) != uniq[a] * uniq[b]:
                parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for i in active:
        groups.setdefault(find(i), []).append(i)
    if len(groups) < 2:
        return None
    projections = [(np.array(block), _unique_rows(gens[:, block]))
                   for block in sorted(sorted(g) for g in groups.values())]
    if np.prod([len(sub) for _, sub in projections]) != k:
        return None
    return projections


def componentwise_linear_every_degree(ideal: MonomialIdeal, char: int,
                                      caps: Caps = DEFAULT_CAPS) -> bool:
    """Componentwise linearity as ``invariants._componentwise_linear`` checked it
    before it stopped below t0: the component ideal at every d from the initial
    degree to the regularity has regularity d."""
    for d in range(ideal.indeg(), reg_of(ideal, char, caps) + 1):
        if reg_of(component_ideal(ideal, d), char, caps) != d:
            return False
    return True
