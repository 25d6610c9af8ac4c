"""Tor dimensions and induced Tor maps via the Koszul complex.

Tensoring an ideal with the Koszul complex on all ring variables computes
the same graded Tor spaces as the lattice engine, but through an entirely
different enumeration: the (i, j) strand has one basis element per pair
(monomial u in the ideal of degree j - i, i-subset S of the variables),
with differential (u, S) -> sum of +-(x_s * u, S minus s).  This engine is
exponentially heavier in the ring size; it exists as an independent
cross-check and because a chain-level inclusion of ideals induces maps on
homology, which the lattice engine cannot provide.  Tor-vanishing of an
inclusion is decided from those induced maps.
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
    if ideal.is_zero():
        return []
    mons = np.array(list(monomials_of_degree(ideal.ring, d)), dtype=np.int32)
    gens = ideal.array()
    member = (gens[None, :, :] <= mons[:, None, :]).all(axis=2).any(axis=1)
    picked = [tuple(int(e) for e in row) for row in mons[member]]
    return canonical_order(picked)


class _StrandComplex:
    """All Koszul strands of one ideal in one total degree j."""

    def __init__(self, ideal: MonomialIdeal, j: int, caps: Caps,
                 members: dict[int, list[Exponents]]):
        self.ideal = ideal
        self.j = j
        n = ideal.ring.nvars
        self.nvars = n
        self.basis: dict[int, list[tuple[Exponents, tuple[int, ...]]]] = {}
        self.index: dict[int, dict[tuple[Exponents, tuple[int, ...]], int]] = {}
        top_i = min(n, j - ideal.indeg())  # strands above this are empty
        for i in range(0, top_i + 1):
            deg_u = j - i
            if deg_u < 0:
                continue
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

    def boundary_rank(self, i: int, characteristic: int) -> int:
        trips = self.boundary_triplets(i)
        if not trips:
            return 0
        matrix = rank_input(trips, (self.dim(i - 1), self.dim(i)), characteristic)
        return rank_exact(matrix) if characteristic == 0 else rank_mod_p(matrix, characteristic)

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


def tor_dimensions(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    degree_cap: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> GradedTor:
    """Graded Tor_i(k, ideal)_j for all i and all j up to the degree cap."""
    if ideal.is_zero():
        raise DomainError("Tor of the zero ideal")
    char = resolve_characteristic(ideal.ring, characteristic)
    top = max_lattice_degree(ideal)
    cap = top if degree_cap is None else degree_cap
    if cap < top:
        raise CapError(f"degree cap {cap} is below the top lattice degree {top}")
    entries = []
    members: dict[int, list[Exponents]] = {}
    for j in range(ideal.indeg(), cap + 1):
        strand = _StrandComplex(ideal, j, caps, members)
        ranks = {
            i: strand.boundary_rank(i, char)
            for i in range(0, ideal.ring.nvars + 2)
            if strand.dim(i) or strand.dim(i - 1)
        }
        for i in range(0, ideal.ring.nvars + 1):
            dim = strand.dim(i) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if dim:
                entries.append((i, j, dim))
    return GradedTor(ideal, char, tuple(sorted(entries)))


def _homology_data(strand: _StrandComplex, i: int, field):
    """Cycle representatives (columns) and boundary columns for strand i."""
    ncols = strand.dim(i)
    if ncols == 0:
        return [], []
    d_i = strand.boundary_dense(i, field)
    cycles = nullspace(d_i, ncols, field) if d_i else [
        [field.from_int(1) if r == c else field.zero() for r in range(ncols)]
        for c in range(ncols)
    ]
    d_next = strand.boundary_dense(i + 1, field)
    boundary_cols = []
    if d_next and strand.dim(i + 1):
        for c in range(strand.dim(i + 1)):
            boundary_cols.append([d_next[r][c] for r in range(ncols)])
        # keep an independent subset, deterministically
        red, pivots = rref([list(col) for col in zip(*boundary_cols)], field)
        boundary_cols = [boundary_cols[c] for c in pivots]
    # representatives: cycles extending a basis of the boundary space
    if not cycles:
        return [], boundary_cols
    stacked = boundary_cols + cycles
    red, pivots = rref([list(col) for col in zip(*stacked)], field)
    reps = [stacked[c] for c in pivots if c >= len(boundary_cols)]
    return reps, boundary_cols


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
    if small.is_zero():
        raise DomainError("Tor map from the zero ideal")
    if not big.contains(small):
        raise DomainError("tor_map requires an inclusion of ideals")
    char = resolve_characteristic(small.ring, characteristic)
    field = field_for(char)
    top = max(max_lattice_degree(small), max_lattice_degree(big))
    cap = top if degree_cap is None else degree_cap
    if cap < top:
        raise CapError(f"degree cap {cap} is below the top lattice degree {top}")
    out: dict[tuple[int, int], list[list]] = {}
    members_small: dict[int, list[Exponents]] = {}
    members_big: dict[int, list[Exponents]] = {}
    for j in range(min(small.indeg(), big.indeg()), cap + 1):
        s_small = _StrandComplex(small, j, caps, members_small)
        s_big = _StrandComplex(big, j, caps, members_big)
        small_ranks: dict[int, int] = {}
        for i in range(0, small.ring.nvars + 2):
            if s_small.dim(i) or s_small.dim(i - 1):
                small_ranks[i] = s_small.boundary_rank(i, char)
        for i in range(0, small.ring.nvars + 1):
            if not s_small.dim(i):
                continue
            # cheap rank shortcut: skip strands with zero source homology
            if s_small.dim(i) - small_ranks.get(i, 0) - small_ranks.get(i + 1, 0) == 0:
                continue
            reps, _ = _homology_data(s_small, i, field)
            if not reps:
                continue
            reps_big, bnd_big = _homology_data(s_big, i, field)
            span = bnd_big + reps_big
            ncols_big = s_big.dim(i)
            index_big = s_big.index[i]
            matrix_cols = []
            for z in reps:
                img = [field.zero()] * ncols_big
                for pos, (u, S) in enumerate(s_small.basis[i]):
                    if not field.is_zero(z[pos]):
                        img[index_big[(u, S)]] = z[pos]
                coords = coordinates_in_span(span, img, field)
                if coords is None:
                    raise RuntimeError("cycle image escaped the target cycle space")
                matrix_cols.append(coords[len(bnd_big) :])
            nrows = len(reps_big)
            out[(i, j)] = [
                [matrix_cols[c][r] for c in range(len(matrix_cols))]
                for r in range(nrows)
            ]
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
    a nonzero induced map, when one exists.
    """
    char = resolve_characteristic(small.ring, characteristic)
    field = field_for(char)
    maps = tor_map(small, big, char, degree_cap, caps)
    for (i, j) in sorted(maps):
        mat = maps[(i, j)]
        if any(not field.is_zero(v) for row in mat for v in row):
            return False, (i, j)
    return True, None
