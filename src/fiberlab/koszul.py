"""Induced Tor maps via the Koszul complex.

Tensoring an ideal with the Koszul complex on all ring variables computes
the same graded Tor spaces as the lattice engine, but through an entirely
different enumeration: the (i, j) strand has one basis element per pair
(monomial u in the ideal of degree j - i, i-subset S of the variables),
with differential (u, S) -> sum of +-(x_s * u, S minus s).  This engine is
exponentially heavier in the ring size.  In the package it does one
thing: ``tor_map`` builds the matrices of the maps on Tor that an
inclusion of ideals induces, with the dense toolkit of ``linalg``.  Every
Betti table, the CLI's ``tor`` included, and every Tor-vanishing verdict
come from the lattice engine (``betti.tor_vanishing``, which this module
re-exports); the tests keep the strands' Tor table and their
Tor-vanishing verdicts as its independent cross-checks, and ``tor_map``
as the oracle the verdicts are tested against.  A strand, and the ring's
monomials of one degree that it enumerates, hold at most ``STRAND_LIMIT``
elements, a fixed limit: past it ``CapError`` is raised before any is built.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .betti import _inclusion_field, tor_vanishing  # noqa: F401 (re-exported)
from .core import Exponents
from .errors import CapError, DomainError, InternalError
from .ideals import (MonomialIdeal, _canonical_rows, _canonical_tuple, _divisible,
                     monomials_of_degree)
from .linalg import coordinates_in_span, nullspace, rank_exact, rank_inputs, rank_mod_p, rref

STRAND_LIMIT = 200_000  # basis elements of one strand (i, j), or monomials of one degree


def max_lattice_degree(ideal: MonomialIdeal) -> int:
    """Total degree of the join of all generators: Tor vanishes above it."""
    if ideal.is_zero():
        raise DomainError("zero ideal")
    return int(ideal.array().max(axis=0).sum())


def _members_by_degree(ideal: MonomialIdeal, d: int) -> tuple[Exponents, ...]:
    n = ideal.ring.nvars
    if comb(d + n - 1, n - 1) > STRAND_LIMIT:
        raise CapError.fixed(f"the ring's degree-{d} monomials reached "
                             f"{comb(d + n - 1, n - 1)}", STRAND_LIMIT)
    mons = np.array(list(monomials_of_degree(ideal.ring, d)), dtype=np.int32)
    return _canonical_tuple(_canonical_rows(mons[_divisible(ideal.array(), mons)]))


class _StrandComplex:
    """All Koszul strands of one ideal in one total degree j."""

    def __init__(self, ideal: MonomialIdeal, j: int, members: dict[int, tuple[Exponents, ...]]):
        n = ideal.ring.nvars
        self.nvars = n
        self.basis: dict[int, list[tuple[Exponents, tuple[int, ...]]]] = {}
        self.index: dict[int, dict[tuple[Exponents, tuple[int, ...]], int]] = {}
        top_i = min(n, j - ideal.indeg())  # strands above this are empty
        for i in range(0, top_i + 1):
            deg_u = j - i  # >= indeg, as i <= top_i
            if deg_u not in members:
                members[deg_u] = _members_by_degree(ideal, deg_u)
            us = members[deg_u]
            if not us:
                continue
            size = len(us) * comb(n, i)
            if size > STRAND_LIMIT:
                raise CapError.fixed(f"strand ({i},{j}) reached a basis of {size} elements",
                                     STRAND_LIMIT)
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

    def boundary_rank(self, i: int, char: int) -> int:
        """Rank of the map from strand i to strand i-1."""
        trips = self.boundary_triplets(i)
        if not trips:
            return 0
        # one matrix, which has entries
        (_, matrix), = rank_inputs([0] * len(trips), *zip(*trips), [self.dim(i - 1)],
                                   [self.dim(i)], char)
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


def _strands(small: MonomialIdeal, big: MonomialIdeal, characteristic: int | None):
    """Check an inclusion small -> big of ideals; return its field and its strands.

    The strands come as (j, of small, of big) for each degree j up to the
    top lattice degree, above which Tor vanishes.
    """
    char = _inclusion_field(small, big, characteristic)
    top = max(max_lattice_degree(small), max_lattice_degree(big))
    members: tuple[dict, dict] = ({}, {})

    def strands():
        for j in range(min(small.indeg(), big.indeg()), top + 1):
            yield j, _StrandComplex(small, j, members[0]), _StrandComplex(big, j, members[1])

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
) -> dict[tuple[int, int], list[list]]:
    """Induced maps Tor_i(k, small)_j -> Tor_i(k, big)_j for an inclusion.

    Returns one matrix per (i, j) where the source homology is nonzero;
    rows are indexed by the target's representatives, columns by the
    source's.  Entries live in GF(p) (ints) or Q (Fractions).
    """
    char, strands = _strands(small, big, characteristic)
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
