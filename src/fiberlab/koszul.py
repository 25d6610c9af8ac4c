"""Tor dimensions, induced Tor maps and Tor-vanishing via the Koszul complex.

Tensoring an ideal with the Koszul complex on all ring variables computes
the same graded Tor spaces as the lattice engine, but through an entirely
different enumeration: the (i, j) strand has one basis element per pair
(monomial u in the ideal of degree j - i, i-subset S of the variables),
with differential (u, S) -> sum of +-(x_s * u, S minus s).  This engine is
exponentially heavier in the ring size; it exists as an independent
cross-check and because a chain-level inclusion of ideals induces maps on
homology, which the lattice engine cannot provide.

Dimensions and Tor-vanishing verdicts come from strand ranks alone.
``tor_map`` builds the induced matrices themselves with the dense toolkit
of ``linalg``; it is the API for those maps and the oracle the verdicts
are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .core import Exponents, canonical_order, resolve_characteristic
from .errors import CapError, DomainError
from .ideals import MonomialIdeal, monomials_of_degree
from .linalg import (
    coordinates_in_span,
    field_for,
    nullspace,
    rank_exact,
    rank_input,
    rank_mod_p,
    rref,
)


def max_lattice_degree(ideal: MonomialIdeal) -> int:
    """Total degree of the join of all generators: Tor vanishes above it."""
    if ideal.is_zero():
        raise DomainError("zero ideal")
    join = [0] * ideal.ring.nvars
    for g in ideal.gens:
        for i, e in enumerate(g):
            join[i] = max(join[i], e)
    return sum(join)


def _members_by_degree(ideal: MonomialIdeal, d: int, caps: Caps) -> list[Exponents]:
    n = ideal.ring.nvars
    if comb(d + n - 1, n - 1) > caps.koszul_basis:
        raise CapError(
            f"{comb(d + n - 1, n - 1)} degree-{d} monomials exceed the "
            f"koszul basis cap {caps.koszul_basis}"
        )
    mons = np.array(list(monomials_of_degree(ideal.ring, d)), dtype=np.int32)
    gens = ideal.array()
    member = (gens[None, :, :] <= mons[:, None, :]).all(axis=2).any(axis=1)
    picked = [tuple(int(e) for e in row) for row in mons[member]]
    return canonical_order(picked)


class _StrandComplex:
    """All Koszul strands of one ideal in one total degree j."""

    def __init__(self, ideal: MonomialIdeal, j: int, caps: Caps,
                 members: dict[int, list[Exponents]]):
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
                raise CapError(
                    f"strand ({i},{j}) basis of size {size} exceeds cap "
                    f"{caps.koszul_basis}"
                )
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

    def boundary_rank(self, i: int, characteristic: int, rows: list[int] | None = None) -> int:
        """Rank of the map from strand i to strand i-1, or of its ``rows`` only."""
        trips, nrows = self.boundary_triplets(i), self.dim(i - 1)
        if rows is not None:
            renumber = {r: k for k, r in enumerate(rows)}
            trips = [(renumber[r], c, s) for r, c, s in trips if r in renumber]
            nrows = len(rows)
        if not trips:
            return 0
        matrix = rank_input(trips, (nrows, self.dim(i)), characteristic)
        return rank_exact(matrix) if characteristic == 0 else rank_mod_p(matrix, characteristic)

    def homology(self, characteristic: int):
        """(i, dim Z_i, dim H_i) for every homological position i."""
        ranks = [self.boundary_rank(i, characteristic) for i in range(self.nvars + 2)]
        for i in range(self.nvars + 1):
            cycles = self.dim(i) - ranks[i]
            yield i, cycles, cycles - ranks[i + 1]

    def boundary_dense(self, i: int, field) -> list[list]:
        nrows, ncols = self.dim(i - 1), self.dim(i)
        mat = [[field.zero()] * ncols for _ in range(nrows)]
        for r, c, s in self.boundary_triplets(i):
            mat[r][c] = field.from_int(s)
        return mat


@dataclass(frozen=True)
class GradedTor:
    """Graded Tor dimensions of an ideal, over a fixed field."""

    subject: MonomialIdeal
    characteristic: int
    entries: tuple[tuple[int, int, int], ...]  # (i, j, dim)

    def table(self) -> dict[tuple[int, int], int]:
        return {(i, j): d for i, j, d in self.entries}

    def to_json_dict(self) -> dict:
        return {
            "char": self.characteristic,
            "entries": [{"i": i, "j": j, "dim": d} for i, j, d in sorted(self.entries)],
        }


def _strands(what: str, small: MonomialIdeal, big: MonomialIdeal, characteristic: int | None,
             degree_cap: int | None, caps: Caps):
    """Check the input of a Tor computation; return its field and its strands.

    ``big`` is ``small`` itself for the Tor of one ideal, else an ideal that
    must contain ``small``.  The strands come as (j, of small, of big) for
    each degree j up to the cap.  Tor vanishes above the top lattice degree,
    so a cap below it is a CapError rather than a truncated answer.
    """
    if small.is_zero():
        raise DomainError(f"{what} the zero ideal")
    if big is not small and not big.contains(small):
        raise DomainError("tor_map requires an inclusion of ideals")
    char = resolve_characteristic(small.ring, characteristic)
    top = max(max_lattice_degree(small), max_lattice_degree(big))
    cap = top if degree_cap is None else degree_cap
    if cap < top:
        raise CapError(f"degree cap {cap} is below the top lattice degree {top}")
    members: tuple[dict, dict] = ({}, {})

    def strands():
        for j in range(min(small.indeg(), big.indeg()), cap + 1):
            s_small = _StrandComplex(small, j, caps, members[0])
            yield j, s_small, s_small if big is small else _StrandComplex(big, j, caps, members[1])

    return char, strands()


def tor_dimensions(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    degree_cap: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> GradedTor:
    """Graded Tor_i(k, ideal)_j for all i and all j up to the degree cap."""
    char, strands = _strands("Tor of", ideal, ideal, characteristic, degree_cap, caps)
    entries = [(i, j, dim) for j, strand, _ in strands
               for i, _, dim in strand.homology(char) if dim]
    return GradedTor(ideal, char, tuple(sorted(entries)))


def _homology_data(strand: _StrandComplex, i: int, field):
    """Cycle representatives (columns) and a boundary basis (columns) for strand i.

    One echelon form of [boundary columns | cycle basis]: its pivots among
    the boundary columns are a basis of B_i, and those among the cycles
    extend it to a basis of Z_i, so they represent a basis of H_i.
    """
    if strand.dim(i) == 0:
        return [], []
    cycles = nullspace(strand.boundary_dense(i, field), strand.dim(i), field)
    stacked = [list(col) for col in zip(*strand.boundary_dense(i + 1, field))] + cycles
    _, pivots = rref([list(row) for row in zip(*stacked)], field)
    nb = len(stacked) - len(cycles)
    return [stacked[c] for c in pivots if c >= nb], [stacked[c] for c in pivots if c < nb]


def tor_map(
    small: MonomialIdeal,
    big: MonomialIdeal,
    characteristic: int | None = None,
    degree_cap: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> dict[tuple[int, int], list[list]]:
    """Induced maps Tor_i(k, small)_j -> Tor_i(k, big)_j for an inclusion.

    Returns one matrix per (i, j) where the source homology is nonzero;
    rows are indexed by the target's representatives, columns by the
    source's.  Entries live in GF(p) (ints) or Q (Fractions).
    """
    char, strands = _strands("Tor map from", small, big, characteristic, degree_cap, caps)
    field = field_for(char)
    out: dict[tuple[int, int], list[list]] = {}
    for j, s_small, s_big in strands:
        for i, _, dim in s_small.homology(char):
            if not dim:
                continue
            reps, _ = _homology_data(s_small, i, field)
            reps_big, bnd_big = _homology_data(s_big, i, field)
            span = bnd_big + reps_big
            index_big = s_big.index[i]
            matrix_cols = []
            for z in reps:
                img = [field.zero()] * s_big.dim(i)
                for pos, (u, S) in enumerate(s_small.basis[i]):
                    if not field.is_zero(z[pos]):
                        img[index_big[(u, S)]] = z[pos]
                coords = coordinates_in_span(span, img, field)
                if coords is None:
                    raise RuntimeError("cycle image escaped the target cycle space")
                matrix_cols.append(coords[len(bnd_big) :])
            out[(i, j)] = [list(row) for row in zip(*matrix_cols)]
    return out


def tor_vanishing(
    small: MonomialIdeal,
    big: MonomialIdeal,
    characteristic: int | None = None,
    degree_cap: int | None = None,
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
    char, strands = _strands("Tor map from", small, big, characteristic, degree_cap, caps)
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
