"""Exact rank computations against a Fraction-based oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from fiberlab import CapError, DomainError, Ring

from conftest import rank_mod_p_oracle

from fiberlab.linalg import (
    DENSE_CELL_LIMIT,
    coordinates_in_span,
    nullspace,
    rank_exact,
    rank_input,
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
        assert rank_exact(rank_input(triplets_of(mat), mat.shape, 0)) == want
        assert np.array_equal(rank_input(triplets_of(mat), mat.shape, 32003), mat)
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

    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(AssertionError, match="allocated"):  # at the limit: allocates
        rank_input([], (DENSE_CELL_LIMIT // 4096, 4096), 32003)
    with pytest.raises(CapError) as raised:
        rank_input([], (DENSE_CELL_LIMIT // 4096 + 1, 4096), 32003)
    message = str(raised.value)
    assert "shape (16385, 4096)" in message
    assert "not a FIBERLAB_CAPS cap" in message


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
        assert rank_mod_p(mat, p) == rank_exact(rank_input(triplets_of(mat), mat.shape, 0))


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
            rank_exact(rank_input(triplets_of(mat), mat.shape, 0)) for mat in small
        ]
    assert rank_mod_p(np.zeros((2, 3, 0), dtype=np.int64), p).tolist() == [0, 0]


def test_rank_mod_small_prime_can_drop():
    mat = np.array([[2]], dtype=np.int64)
    assert rank_mod_p(mat, 2) == 0
    assert rank_exact(rank_input(triplets_of(mat), mat.shape, 0)) == 1


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
