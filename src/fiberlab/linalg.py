"""Exact rank and echelon computations over Q and GF(p).

Three layers, each exact:

* ``rank_mod_p`` -- dense vectorized elimination for prime fields (the fast
  path used on homology boundary matrices).
* ``rank_exact`` -- sparse fraction-free integer elimination with row-gcd
  normalization; computes ranks over Q without ever rounding.  Both rank
  routines take their matrix from ``rank_input``, which both Betti engines
  feed with (row, col, sign) triplets.
* a small dense toolkit generic over a ``Field`` (GF(p) or Fraction) for
  actual bases and coordinates: the induced matrices of ``koszul.tor_map``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


# -- dense rank over GF(p) -------------------------------------------------


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p) by row reduction (exact)."""
    if matrix.size == 0:
        return 0
    m = np.array(matrix, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        below = m[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            m[r + 1 + nzb, c:] = (m[r + 1 + nzb, c:] - np.outer(below[nzb], m[r, c:])) % p
        r += 1
    return r


# -- sparse fraction-free rank over Q ---------------------------------------


def rank_exact(rows: list[dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given as {column: value} rows.

    Fraction-free: every row operation is integer (cross-multiplication),
    followed by a gcd division, so no precision is ever lost.  Pivoting is
    Markowitz-flavored to limit fill-in, with index tie-breaks so the
    elimination order is deterministic.
    """
    work = [dict(r) for r in rows if r]
    rank = 0
    col_count: dict[int, int] = {}
    for r in work:
        for c in r:
            col_count[c] = col_count.get(c, 0) + 1
    while work:
        best = None
        for idx, row in enumerate(work):
            for c, v in row.items():
                unit = 0 if abs(v) == 1 else 1
                key = (unit, (len(row) - 1) * (col_count[c] - 1), len(row), c, idx)
                if best is None or key < best[0]:
                    best = (key, idx, c)
        _, pidx, pcol = best
        prow = work.pop(pidx)
        pval = prow[pcol]
        rank += 1
        for c in prow:
            col_count[c] -= 1
        touched = [row for row in work if pcol in row]
        for row in touched:
            b = row.pop(pcol)
            col_count[pcol] -= 1
            for c in row:  # scale the whole row before subtracting b * pivot row
                row[c] *= pval
            for c, v in prow.items():
                if c == pcol:
                    continue
                nv = row.get(c, 0) - v * b
                if nv:
                    if c not in row:
                        col_count[c] = col_count.get(c, 0) + 1
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_count[c] -= 1
            if row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in row:
                        row[c] //= g
        work = [row for row in work if row]
    return rank


def rank_input(
    triplets: list[tuple[int, int, int]], shape: tuple[int, int], characteristic: int
) -> list[dict[int, int]] | np.ndarray:
    """The matrix with (row, col, value) entries ``triplets``, ready for a rank.

    Over Q (characteristic 0) these are the {column: value} rows that
    ``rank_exact`` takes; over GF(p) the dense int64 array of ``rank_mod_p``.
    """
    nrows, ncols = shape
    if characteristic == 0:
        rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
        for r, c, v in triplets:
            rows[r][c] = v
        return rows
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for r, c, v in triplets:
        mat[r, c] = v
    return mat


# -- dense field-generic toolkit --------------------------------------------


class GFp:
    """Prime field arithmetic on plain ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p

    def from_int(self, n: int):
        return n % self.p

    def zero(self):
        return 0

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


class QQ:
    """The rationals via fractions.Fraction."""

    def from_int(self, n: int):
        return Fraction(n)

    def zero(self):
        return Fraction(0)

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


def field_for(characteristic: int):
    return QQ() if characteristic == 0 else GFp(characteristic)


def rref(rows: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def nullspace(rows: list[list], ncols: int, field) -> list[list]:
    """Basis of the right kernel, one vector per free column (deterministic)."""
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.from_int(1)
        for prow, pcol in zip(red, pivots):
            v = prow[free]
            if not field.is_zero(v):
                vec[pcol] = field.sub(field.zero(), v)
        basis.append(vec)
    return basis


def coordinates_in_span(basis_cols: list[list], vector: list, field) -> list | None:
    """Coordinates of ``vector`` in the span of ``basis_cols``, or None.

    ``basis_cols`` is a list of column vectors, all the same length.
    """
    if not basis_cols:
        return [] if all(field.is_zero(v) for v in vector) else None
    nrows = len(vector)
    aug = [[col[i] for col in basis_cols] + [vector[i]] for i in range(nrows)]
    red, pivots = rref(aug, field)
    k = len(basis_cols)
    if k in pivots:
        return None
    coords = [field.zero()] * k
    for prow, pcol in zip(red, pivots):
        coords[pcol] = prow[k]
    return coords
