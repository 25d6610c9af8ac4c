"""Exact rank and echelon computations over Q and GF(p).

Four parts, each exact:

* ``rank_inputs`` -- the one layout of rank inputs, for both Betti engines:
  a batch of sparse integer matrices, as COO arrays with their shapes,
  becomes {column: value} rows for ``rank_exact`` over Q, or zero-padded
  stacks of similar shapes, cut at a fixed cell budget, for ``rank_mod_p``
  over GF(p).  A dense matrix may have at most ``DENSE_CELL_LIMIT`` (2^26)
  cells, 512 MiB per int64 copy, of which ``rank_mod_p`` makes one: a fixed
  limit, not a ``FIBERLAB_CAPS`` cap, checked before any stack exists.  A
  large Koszul strand, or a simplex boundary on 16 vertices, passes it.
* ``rank_mod_p`` -- the one GF(p) elimination: dense, vectorized and
  fraction-free.  It takes one matrix, or a (B, R, C) stack, and then
  eliminates all B matrices with one step per column.  A step touches
  only the rows that are nonzero in its column, so large sparse strands
  keep their cost.
* ``rank_exact`` -- sparse fraction-free integer elimination with row-gcd
  normalization; computes ranks over Q without ever rounding, one matrix
  at a time.
* a small dense toolkit for actual bases and coordinates: the induced
  matrices of ``koszul.tor_map``.  Like ``rank_inputs`` it takes the
  characteristic: its elements are residues mod p, or Fractions over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import CapError

DENSE_CELL_LIMIT = 1 << 26
# cells of one stack of zero-padded matrices, and of one face-indicator array
# of the lattice walk; a larger batch is cut into several
_CELL_BUDGET = 1 << 21

# -- dense rank over GF(p) -------------------------------------------------


def rank_mod_p(matrix: np.ndarray, p: int) -> int | np.ndarray:
    """Rank over GF(p) of an integer matrix, or of each matrix of a stack (exact).

    A 2-D ``matrix`` gives an int; a ``(B, R, C)`` stack gives an array of
    B ranks, one per matrix, computed together: one elimination step per
    column serves every matrix.  A step takes as pivot the first row of
    each matrix that is nonzero in the column and not yet a pivot, and
    updates only the other such rows, fraction-free (row * pivot - entry *
    pivot row), so no inverse is needed.  Zero padding of a stack's matrices
    leaves their ranks unchanged.  Every product is of two residues, which
    the bound (p-1)^2 < 2^63 on p keeps inside int64.
    """
    work = np.asarray(matrix).astype(np.int64)
    work %= p
    single = work.ndim == 2
    nrows, ncols = work.shape[-2:]
    nmat = 1 if single else len(work)
    work = work.reshape(nmat * nrows, ncols)  # matrix b holds rows b*nrows ...
    ranks = np.zeros(nmat, dtype=np.int64)
    free = np.ones(nmat * nrows, dtype=bool)  # rows not yet taken as a pivot
    taken = 0
    for c in range(ncols):
        if taken == len(free):
            break
        rows = np.flatnonzero(work[:, c])
        rows = rows[free[rows]]
        if rows.size == 0:
            continue
        mats = rows // nrows
        first = np.ones(rows.size, dtype=bool)
        first[1:] = mats[1:] != mats[:-1]
        prows = rows[first]
        free[prows] = False
        ranks[mats[first]] += 1
        taken += len(prows)
        if len(prows) == len(rows):
            continue
        rows = rows[~first]
        pivot = work[prows, c:]  # pivot entry, then the rest of the pivot row
        if len(prows) > 1:
            pivot = pivot[np.searchsorted(mats[first], mats[~first])]
        rest = work[rows, c + 1 :]
        rest *= pivot[:, :1]
        rest -= work[rows, c][:, None] * pivot[:, 1:]
        rest %= p
        work[rows, c + 1 :] = rest
    return int(ranks[0]) if single else ranks


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


def _stacks(nrows: list[int], ncols: list[int]) -> list[slice]:
    """Consecutive runs of matrices whose zero-padded stack fits the cell budget."""
    runs, start, top_r, top_c = [], 0, 0, 0
    for i, (r, c) in enumerate(zip(nrows, ncols)):
        top_r, top_c = max(top_r, r), max(top_c, c)
        if i > start and (i - start + 1) * top_r * top_c > _CELL_BUDGET:
            runs.append(slice(start, i))
            start, top_r, top_c = i, r, c
    return runs + [slice(start, len(nrows))] if nrows else runs


def rank_inputs(owner, row, col, value, nrows, ncols, characteristic: int):
    """Lay out a batch of sparse integer matrices for ``rank_exact`` or ``rank_mod_p``.

    Matrix b has shape (nrows[b], ncols[b]) and the entry value[e] at
    (row[e], col[e]) for each e with owner[e] == b, at distinct positions.
    Yields (members, matrix) pairs, leaving out matrices without entries.
    Over Q members is one b and matrix its {column: value} rows.  Over
    GF(p) members is an array and matrix their zero-padded stack (int8 if
    the values fit): sorted by width, then height, consecutive matrices
    share a stack within ``_CELL_BUDGET`` cells.  A matrix over
    ``DENSE_CELL_LIMIT`` cells raises CapError before any stack exists.
    """
    if characteristic == 0:  # plain Python, so a small strand pays no NumPy call
        owner, row, col, value = (a.tolist() if isinstance(a, np.ndarray) else a
                                  for a in (owner, row, col, value))
        mats: dict[int, list[dict[int, int]]] = {}
        for b, r, c, v in zip(owner, row, col, value):
            rows = mats.get(b)
            if rows is None:
                rows = mats[b] = [{} for _ in range(nrows[b])]
            rows[r][c] = v
        yield from mats.items()
        return
    owner, row, col, value = np.asarray(owner, dtype=np.int64), *map(np.asarray, (row, col, value))
    nrows, ncols = np.asarray(nrows, dtype=np.int64), np.asarray(ncols, dtype=np.int64)
    have = np.flatnonzero(np.bincount(owner, minlength=len(nrows)))
    have = have[np.lexsort((nrows[have], ncols[have]))]
    heights, widths = nrows[have].tolist(), ncols[have].tolist()
    cells = nrows[have] * ncols[have]
    if len(have) and cells.max() > DENSE_CELL_LIMIT:
        r, c = heights[cells.argmax()], widths[cells.argmax()]
        raise CapError.fixed(f"a dense GF(p) matrix of shape ({r}, {c}) reached {r * c} cells",
                             DENSE_CELL_LIMIT)
    dtype = np.int8 if np.abs(value).max(initial=0) < 128 else np.int64
    place = np.empty(len(nrows), dtype=np.int64)  # a matrix's place in the sorted order
    place[have] = np.arange(len(have))
    place = place[owner]
    runs = _stacks(heights, widths)
    for run in runs:
        mine = slice(None) if len(runs) == 1 else (place >= run.start) & (place < run.stop)
        stack = np.zeros((run.stop - run.start, max(heights[run]), max(widths[run])), dtype=dtype)
        stack[place[mine] - run.start, row[mine], col[mine]] = value[mine]
        yield have[run], stack


# -- dense toolkit over Q or GF(p) -----------------------------------------


def _element(value, p: int):
    """``value`` in the field of characteristic ``p``: a residue mod p, or a Fraction."""
    return value % p if p else Fraction(value)


def rref(rows: list[list], characteristic: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    p = characteristic
    m = [[_element(v, p) for v in r] for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [_element(inv * v, p) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [_element(a - f * b, p) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def nullspace(rows: list[list], ncols: int, characteristic: int) -> list[list]:
    """Basis of the right kernel, one vector per free column (deterministic)."""
    red, pivots = rref(rows, characteristic)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_element(0, characteristic)] * ncols
        vec[free] = _element(1, characteristic)
        for prow, pcol in zip(red, pivots):
            if prow[free]:
                vec[pcol] = _element(-prow[free], characteristic)
        basis.append(vec)
    return basis


def coordinates_in_span(basis_cols: list[list], vector: list, characteristic: int) -> list | None:
    """Coordinates of ``vector`` in the span of ``basis_cols``, or None.

    ``basis_cols`` is a list of column vectors, all the same length.
    """
    if not basis_cols:
        return None if any(_element(v, characteristic) for v in vector) else []
    nrows = len(vector)
    aug = [[col[i] for col in basis_cols] + [vector[i]] for i in range(nrows)]
    red, pivots = rref(aug, characteristic)
    k = len(basis_cols)
    if k in pivots:
        return None
    coords = [_element(0, characteristic)] * k
    for prow, pcol in zip(red, pivots):
        coords[pcol] = prow[k]
    return coords
