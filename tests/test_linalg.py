"""Exact rank computations against a Fraction-based oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import fiberlab.linalg as linalg
from fiberlab import CapError, DomainError, Ring

from conftest import exact_rank, rank_mod_p_oracle

from fiberlab.linalg import (
    DENSE_CELL_LIMIT,
    coordinates_in_span,
    nullspace,
    rank_exact,
    rank_inputs,
    rank_mod_p,
    rref,
)


def rank_fraction_oracle(matrix) -> int:
    rows = [[Fraction(int(v)) for v in row] for row in matrix]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        prow = rows.pop(piv)
        rank += 1
        prow = [v / prow[col] for v in prow]
        rows = [
            [a - r[col] * b for a, b in zip(r, prow)] if r[col] != 0 else r
            for r in rows
        ]
        col += 1
    return rank


def triplets_of(matrix) -> list[tuple[int, int, int]]:
    return [(r, c, int(v)) for (r, c), v in np.ndenumerate(matrix) if v]


def test_ranks_match_oracle_random():
    rng = random.Random(2026)
    for _ in range(60):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        mat = np.array(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        want = rank_fraction_oracle(mat)
        assert exact_rank(triplets_of(mat), mat.shape) == want
        # over GF(p) the layout of one matrix is a stack of one, the matrix itself
        row, col, value = zip(*triplets_of(mat)) if mat.any() else ((), (), ())
        layouts = list(rank_inputs([0] * len(row), row, col, value, [rows], [cols], 32003))
        assert [stack.tolist() for _, stack in layouts] == ([[mat.tolist()]] if mat.any() else [])
        sparse = [
            {j: int(v) for j, v in enumerate(row) if v}
            for row in mat
        ]
        assert rank_exact(sparse) == want
        # a large prime cannot collide with minors this small
        assert rank_mod_p(mat, 32003) == want


def test_dense_rank_input_over_the_cell_limit_raises_before_allocating(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated")

    def layout(*nrows):  # one entry in each matrix, 4096 columns
        k = len(nrows)
        return list(rank_inputs(range(k), [0] * k, [0] * k, [1] * k, nrows, [4096] * k, 32003))

    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(AssertionError, match="allocated"):  # at the limit: allocates
        layout(DENSE_CELL_LIMIT // 4096)
    # one matrix over the limit refuses the batch, before a smaller one is laid out
    for batch in ((DENSE_CELL_LIMIT // 4096 + 1,), (3, DENSE_CELL_LIMIT // 4096 + 1)):
        with pytest.raises(CapError) as raised:
            layout(*batch)
        message = str(raised.value)
        assert "shape (16385, 4096)" in message
        assert "not a FIBERLAB_CAPS cap" in message


small_sparse_batches = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda shape: st.lists(
            st.one_of(st.just(0), st.integers(-3, 3), st.integers(-300, 300)),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
        ).map(lambda cells: np.array(cells, dtype=np.int64).reshape(shape))
    ),
    min_size=0, max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(small_sparse_batches, st.sampled_from([0, 2, 5, 32003]),
       st.sampled_from([1, 12, 60, 1 << 21]), st.booleans())
def test_rank_inputs_give_every_matrix_its_own_rank(mats, char, budget, as_arrays):
    # mixed shapes, values past int8, empty matrices, and a budget that cuts
    # the stacks after one to a few matrices: each rank is the matrix's own
    owner, row, col, value = [], [], [], []
    for b, mat in enumerate(mats):
        for (r, c), v in np.ndenumerate(mat):
            if v:
                owner.append(b), row.append(r), col.append(c), value.append(int(v))
    coo = [np.array(a, dtype=np.int64) for a in (owner, row, col, value)] if as_arrays else \
        [owner, row, col, value]
    shapes = [mat.shape[0] for mat in mats], [mat.shape[1] for mat in mats]
    ranks = np.zeros(len(mats), dtype=np.int64)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_CELL_BUDGET", budget)
        for members, matrix in rank_inputs(*coo, *shapes, char):
            ranks[members] = rank_exact(matrix) if char == 0 else rank_mod_p(matrix, char)
            seen.extend(np.atleast_1d(members).tolist())
            if char and len(matrix) > 1:
                assert matrix.size <= budget
    assert sorted(seen) == sorted(set(owner))
    for mat, rank in zip(mats, ranks.tolist()):
        if char == 0:
            assert rank == rank_exact([{c: int(v) for c, v in enumerate(r) if v} for r in mat])
        else:
            assert rank == rank_mod_p(mat, char) == rank_mod_p_oracle(mat, char)


def test_largest_allowed_prime_ranks_exactly():
    # 3037000493 is the largest prime p with (p-1)^2 < 2^63; the next prime
    # is refused because rank_mod_p's int64 products would overflow
    p = 3037000493
    assert Ring("R", ("x",), characteristic=p).characteristic == p
    with pytest.raises(DomainError):
        Ring("R", ("x",), characteristic=3037000507)
    rng = np.random.default_rng(0)
    for _ in range(200):
        mat = rng.integers(-2, 3, (6, 6))
        assert rank_mod_p(mat, p) == exact_rank(triplets_of(mat), mat.shape)


def test_stacked_ranks_at_the_largest_allowed_prime():
    # a (B, R, C) stack gives one rank per matrix, equal to the 2-D answer;
    # residues near p make every product in the fraction-free step near 2^63
    p = 3037000493
    rng = np.random.default_rng(1)
    for _ in range(30):
        shape = (int(rng.integers(1, 6)), int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        residues = p - 1 - rng.integers(0, 3, shape)
        residues[rng.random(shape) < 0.4] = 0
        small = rng.integers(-2, 3, shape)
        for stack in (residues, small):
            ranks = rank_mod_p(stack, p)
            assert ranks.shape == (shape[0],)
            assert ranks.tolist() == [rank_mod_p_oracle(mat, p) for mat in stack]
            assert ranks.tolist() == [rank_mod_p(mat, p) for mat in stack]
        assert rank_mod_p(small, p).tolist() == [
            exact_rank(triplets_of(mat), mat.shape) for mat in small
        ]
    assert rank_mod_p(np.zeros((2, 3, 0), dtype=np.int64), p).tolist() == [0, 0]


def test_rank_mod_small_prime_can_drop():
    mat = np.array([[2]], dtype=np.int64)
    assert rank_mod_p(mat, 2) == 0
    assert exact_rank(triplets_of(mat), mat.shape) == 1


def test_rref_and_nullspace_q():
    rows = [[1, 2, 0], [0, 0, 1]]
    red, pivots = rref(rows, 0)
    assert pivots == [0, 2]
    ns = nullspace(rows, 3, 0)
    assert len(ns) == 1
    vec = ns[0]
    # kernel vector: x = -2y, z = 0
    assert vec[0] == Fraction(-2) and vec[1] == Fraction(1) and vec[2] == 0
    assert all(type(v) is Fraction for row in red for v in row + vec)


def test_coordinates_in_span_both_fields():
    for char in (0, 32003):
        basis = [[1, 0, 1], [0, 1, 1]]
        target = [2, 3, 5]
        coords = coordinates_in_span(basis, target, char)
        assert coords is not None
        recon = [coords[0] * basis[0][i] + coords[1] * basis[1][i] for i in range(3)]
        if char:
            recon = [v % char for v in recon]
        assert recon == target
        outside = [1, 0, 0]
        assert coordinates_in_span(basis, outside, char) is None


def test_gfp_arithmetic():
    # 3 * 5 = 1 mod 7, so 3^-1 = 5 scales the pivot row; 6 = 2 * 3 reduces to zero
    assert rref([[3, 1], [6, 2]], 7) == ([[1, 5]], [0])
