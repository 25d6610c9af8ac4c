"""Hilbert functions and finite-length quotient regularity."""

import random

import pytest

from fiberlab import DomainError, MonomialIdeal, Ring, finite_length_reg, maxideal_power
from fiberlab.hilbert import hilbert_function, hilbert_inclusion_exclusion

from conftest import count_in_ideal_bruteforce, ideal_of, random_ideal


def test_examples(ring_xy, ring_xyz):
    squares = ideal_of(ring_xy, "x^2", "y^2")
    assert hilbert_function(squares, 2) == 2
    assert hilbert_function(squares, 3) == 4
    assert hilbert_function(maxideal_power(ring_xyz, None, 1), 5) == 21
    assert hilbert_function(MonomialIdeal.zero(ring_xy), 3) == 0
    assert hilbert_function(MonomialIdeal.unit(ring_xy), 3) == 4


def test_three_paths_agree():
    rng = random.Random(41)
    for nvars in (2, 3, 4, 5):
        ring = Ring("R", tuple(f"x{i}" for i in range(nvars)))
        for _ in range(8):
            ideal = random_ideal(rng, ring, max_gens=6, max_deg=4)
            for d in (0, 1, 3, 5, 8, 12):
                a = hilbert_function(ideal, d)
                b = hilbert_inclusion_exclusion(ideal, d)
                assert a == b == count_in_ideal_bruteforce(ideal, d)


def test_splitting_path_handles_many_generators():
    ring = Ring("R", ("a", "b", "c", "d"))
    big = maxideal_power(ring, None, 2) * ideal_of(ring, "a^2", "b^2", "c^2", "d^2")
    for d in (4, 5, 6, 9):
        assert hilbert_function(big, d) == count_in_ideal_bruteforce(big, d)


def test_modularity_identity(ring_xy):
    rng = random.Random(5)
    for _ in range(10):
        a = random_ideal(rng, ring_xy, max_gens=4, max_deg=4)
        b = random_ideal(rng, ring_xy, max_gens=4, max_deg=4)
        for d in range(8):
            lhs = hilbert_function(a + b, d) + hilbert_function(a & b, d)
            assert lhs == hilbert_function(a, d) + hilbert_function(b, d)


def test_finite_length_reg_examples(ring_xy):
    mm = maxideal_power(ring_xy, None, 1)
    assert finite_length_reg(mm, maxideal_power(ring_xy, None, 2)) == 1
    x = ideal_of(ring_xy, "x")
    assert finite_length_reg(x, x) is None


def test_finite_length_reg_single_degree(ring_xy):
    # M generated in one degree t0: top of M / m^i M is i + t0 - 1
    m2 = maxideal_power(ring_xy, None, 2)
    for i in (1, 2, 3):
        shifted = maxideal_power(ring_xy, None, i) * m2
        assert finite_length_reg(m2, shifted) == i + 2 - 1


def test_finite_length_reg_deep_socle():
    # (x,y,z) over (x^4,y^4,z^4): the top difference sits at degree 9,
    # well past generator degrees, and must be found, not mistaken for
    # an infinite-length quotient
    ring = Ring("R", ("x", "y", "z"))
    big = maxideal_power(ring, None, 1)
    small = ideal_of(ring, "x^4", "y^4", "z^4")
    assert finite_length_reg(big, small) == 9


def test_finite_length_reg_rejects_infinite(ring_xy):
    big = maxideal_power(ring_xy, None, 1)
    small = ideal_of(ring_xy, "x^3")
    with pytest.raises(DomainError):
        finite_length_reg(big, small)
    with pytest.raises(DomainError):
        finite_length_reg(small, big)  # not contained
