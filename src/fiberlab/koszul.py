"""Induced Tor maps and Tor-vanishing via the Koszul complex.

Tensoring an ideal with the Koszul complex on all ring variables computes
the same graded Tor spaces as the lattice engine, but through an entirely
different enumeration: the (i, j) strand has one basis element per pair
(monomial u in the ideal of degree j - i, i-subset S of the variables),
with differential (u, S) -> sum of +-(x_s * u, S minus s).  This engine is
exponentially heavier in the ring size.  It exists because a chain-level
inclusion of ideals induces maps on homology, which the lattice engine
cannot provide; every Betti table, the CLI's ``tor`` included, comes from
the lattice engine, and the tests keep these strands as its independent
cross-check.

Tor-vanishing verdicts come from strand ranks alone.  ``tor_map`` builds
the induced matrices themselves with the dense toolkit of ``linalg``; it
is the API for those maps and the oracle the verdicts are tested against.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .core import Exponents, resolve_characteristic
from .errors import CapError, DomainError, InternalError
from .ideals import (MonomialIdeal, _canonical_rows, _canonical_tuple, _divisible,
                     monomials_of_degree)
from .linalg import coordinates_in_span, nullspace, rank_exact, rank_inputs, rank_mod_p, rref


def max_lattice_degree(ideal: MonomialIdeal) -> int:
    """Total degree of the join of all generators: Tor vanishes above it."""
    if ideal.is_zero():
        raise DomainError("zero ideal")
    return int(ideal.array().max(axis=0).sum())


def _members_by_degree(ideal: MonomialIdeal, d: int, caps: Caps) -> tuple[Exponents, ...]:
    n = ideal.ring.nvars
    if comb(d + n - 1, n - 1) > caps.koszul_basis:
        raise CapError.over("koszul_basis", f"the ring's degree-{d} monomials reached "
                            f"{comb(d + n - 1, n - 1)}", caps.koszul_basis)
    mons = np.array(list(monomials_of_degree(ideal.ring, d)), dtype=np.int32)
    return _canonical_tuple(_canonical_rows(mons[_divisible(ideal.array(), mons)]))


class _StrandComplex:
    """All Koszul strands of one ideal in one total degree j."""

    def __init__(self, ideal: MonomialIdeal, j: int, caps: Caps,
                 members: dict[int, tuple[Exponents, ...]]):
        n = ideal.ring.nvars
        self.nvars = n
        self.basis: dict[int, list[tuple[Exponents, tuple[int, ...]]]] = {}
        self.index: dict[int, dict[tuple[Exponents, tuple[int, ...]], int]] = {}
        top_i = min(n, j - ideal.indeg())  # strands above this are empty
        for i in range(0, top_i + 1):
            deg_u = j - i  # >= indeg, as i <= top_i
            if deg_u not in members:
                members[deg_u] = _members_by_degree(ideal, deg_u, caps)
            us = members[deg_u]
            if not us:
                continue
            size = len(us) * comb(n, i)
            if size > caps.koszul_basis:
                raise CapError.over("koszul_basis", f"strand ({i},{j}) reached a "
                                    f"basis of {size} elements", caps.koszul_basis)
            basis = [
                (u, S)
                for u in us
                for S in itertools.combinations(range(n), i)
            ]
            self.basis[i] = basis
            self.index[i] = {elt: pos for pos, elt in enumerate(basis)}

    def dim(self, i: int) -> int:
        return len(self.basis.get(i, ()))

    def boundary_triplets(self, i: int) -> list[tuple[int, int, int]]:
        """(row, col, sign) entries of the map from strand i to strand i-1."""
        if i not in self.basis or (i - 1) not in self.index:
            return []
        target = self.index[i - 1]
        out = []
        for col, (u, S) in enumerate(self.basis[i]):
            for pos, s in enumerate(S):
                v = list(u)
                v[s] += 1
                key = (tuple(v), S[:pos] + S[pos + 1 :])
                out.append((target[key], col, -1 if pos % 2 else 1))
        return out

    def boundary_rank(self, i: int, char: int, rows: list[int] | None = None) -> int:
        """Rank of the map from strand i to strand i-1, or of its ``rows`` only."""
        trips, nrows = self.boundary_triplets(i), self.dim(i - 1)
        if rows is not None:
            renumber = {r: k for k, r in enumerate(rows)}
            trips = [(renumber[r], c, s) for r, c, s in trips if r in renumber]
            nrows = len(rows)
        if not trips:
            return 0
        # one matrix, which has entries
        (_, matrix), = rank_inputs([0] * len(trips), *zip(*trips), [nrows], [self.dim(i)], char)
        return int(rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)[0])

    def homology(self, characteristic: int):
        """(i, dim Z_i, dim H_i) for every homological position i."""
        ranks = [self.boundary_rank(i, characteristic) for i in range(self.nvars + 2)]
        for i in range(self.nvars + 1):
            cycles = self.dim(i) - ranks[i]
            yield i, cycles, cycles - ranks[i + 1]

    def boundary_dense(self, i: int) -> list[list[int]]:
        mat = [[0] * self.dim(i) for _ in range(self.dim(i - 1))]
        for r, c, s in self.boundary_triplets(i):
            mat[r][c] = s
        return mat


def _strands(small: MonomialIdeal, big: MonomialIdeal, characteristic: int | None, caps: Caps):
    """Check an inclusion small -> big of ideals; return its field and its strands.

    The strands come as (j, of small, of big) for each degree j up to the
    top lattice degree, above which Tor vanishes.
    """
    if small.is_zero():
        raise DomainError("Tor map from the zero ideal")
    if not big.contains(small):
        raise DomainError("tor_map requires an inclusion of ideals")
    char = resolve_characteristic(small.ring, characteristic)
    top = max(max_lattice_degree(small), max_lattice_degree(big))
    members: tuple[dict, dict] = ({}, {})

    def strands():
        for j in range(min(small.indeg(), big.indeg()), top + 1):
            yield (j, _StrandComplex(small, j, caps, members[0]),
                   _StrandComplex(big, j, caps, members[1]))

    return char, strands()


def _homology_data(strand: _StrandComplex, i: int, characteristic: int):
    """Cycle representatives (columns) and a boundary basis (columns) for strand i.

    One echelon form of [boundary columns | cycle basis]: its pivots among
    the boundary columns are a basis of B_i, and those among the cycles
    extend it to a basis of Z_i, so they represent a basis of H_i.
    """
    if strand.dim(i) == 0:
        return [], []
    cycles = nullspace(strand.boundary_dense(i), strand.dim(i), characteristic)
    stacked = [list(col) for col in zip(*strand.boundary_dense(i + 1))] + cycles
    _, pivots = rref([list(row) for row in zip(*stacked)], characteristic)
    nb = len(stacked) - len(cycles)
    return [stacked[c] for c in pivots if c >= nb], [stacked[c] for c in pivots if c < nb]


def tor_map(
    small: MonomialIdeal,
    big: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> dict[tuple[int, int], list[list]]:
    """Induced maps Tor_i(k, small)_j -> Tor_i(k, big)_j for an inclusion.

    Returns one matrix per (i, j) where the source homology is nonzero;
    rows are indexed by the target's representatives, columns by the
    source's.  Entries live in GF(p) (ints) or Q (Fractions).
    """
    char, strands = _strands(small, big, characteristic, caps)
    out: dict[tuple[int, int], list[list]] = {}
    for j, s_small, s_big in strands:
        for i, _, dim in s_small.homology(char):
            if not dim:
                continue
            reps, _ = _homology_data(s_small, i, char)
            reps_big, bnd_big = _homology_data(s_big, i, char)
            span = bnd_big + reps_big
            index_big = s_big.index[i]
            matrix_cols = []
            for z in reps:
                img = [0] * s_big.dim(i)
                for pos, (u, S) in enumerate(s_small.basis[i]):
                    if z[pos]:
                        img[index_big[(u, S)]] = z[pos]
                coords = coordinates_in_span(span, img, char)
                if coords is None:
                    raise InternalError(
                        f"Tor map at (i, j) = ({i}, {j}): a cycle's image escaped the "
                        "target's cycle space"
                    )
                matrix_cols.append(coords[len(bnd_big) :])
            out[(i, j)] = [list(row) for row in zip(*matrix_cols)]
    return out


def tor_vanishing(
    small: MonomialIdeal,
    big: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[bool, tuple[int, int] | None]:
    """True iff every induced Tor map of the inclusion is zero.

    Returns (vanishing, witness); the witness is the least (i, j) carrying
    a nonzero induced map, when one exists.  Ranks decide it, with no basis
    built: the map on H_i of strand j has rank dim Z_i(small) minus
    dim(B_i(big) & C_i(small)), the cycles of small that die in big, and
    that intersection has dimension rank D - rank PD, where D is big's
    boundary into position i and P deletes the rows of small's basis.
    """
    char, strands = _strands(small, big, characteristic, caps)
    witness = None
    for j, s_small, s_big in strands:
        for i, cycles, dim in s_small.homology(char):
            if not dim or (witness is not None and i >= witness[0]):
                continue
            outside = [r for r, elt in enumerate(s_big.basis[i]) if elt not in s_small.index[i]]
            killed = s_big.boundary_rank(i + 1, char) - s_big.boundary_rank(i + 1, char, outside)
            if cycles > killed:
                witness = (i, j)
    return witness is None, witness
