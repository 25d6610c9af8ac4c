"""Minimal generating sets and the ideal algebra."""

import random

import pytest

from fiberlab import (
    DomainError,
    MonomialIdeal,
    Ring,
    component_ideal,
    maxideal_power,
    parse_monomial,
    star_derivative,
    tensor_embed,
    tensor_ring,
)
from fiberlab.errors import CapError, RingMismatchError

from conftest import ideal_of, random_ideal


def test_from_exponents_drops_multiples(ring_xy):
    ideal = MonomialIdeal.from_exponents(ring_xy, [(2, 0), (2, 1), (1, 1)])
    assert ideal.gens == ((2, 0), (1, 1))
    assert str(ideal) == "x^2, x*y"


def test_from_exponents_empty_is_zero(ring_xy):
    assert MonomialIdeal.from_exponents(ring_xy, []).is_zero()


def test_from_exponents_product_count_by_bruteforce():
    # generators of (a,b)^4 (x1,x2)^2, with duplicates thrown in;
    # brute-force oracle: all a^i b^(4-i) x1^j x2^(2-j)
    ring = Ring("R", ("a", "b", "x1", "x2"))
    expected = {
        (i, 4 - i, j, 2 - j) for i in range(5) for j in range(3)
    }
    listed = list(expected) + list(expected)[:7]  # duplicates
    ideal = MonomialIdeal.from_exponents(ring, listed)
    assert set(ideal.gens) == expected
    assert len(ideal.gens) == 15


def test_sum_examples(ring_xy):
    x2 = ideal_of(ring_xy, "x^2")
    x = ideal_of(ring_xy, "x")
    assert x2 + x == x
    assert x + MonomialIdeal.zero(ring_xy) == x
    T = tensor_ring("T", Ring("A", ("x",)), Ring("B", ("y",)))
    F = (
        tensor_embed(ideal_of(Ring("A", ("x",)), "x^2"), T)
        + tensor_embed(ideal_of(Ring("B", ("y",)), "y^2"), T)
        + ideal_of(T, "x*y")
    )
    assert str(F) == "x^2, x*y, y^2"


def test_product_and_power(ring_xy):
    mm = maxideal_power(ring_xy, None, 1)
    assert mm * mm == maxideal_power(ring_xy, None, 2)
    R = Ring("R", ("a", "b"))
    H = ideal_of(R, "a^4", "a^3*b", "a*b^3", "b^4")
    assert H ** 2 == maxideal_power(R, None, 1) ** 8
    assert (H ** 0).is_unit()


def test_power_additivity_random():
    rng = random.Random(7)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(10):
        ideal = random_ideal(rng, ring, max_gens=3, max_deg=3)
        if ideal.is_zero():
            continue
        for s, t in ((1, 2), (2, 2), (1, 3)):
            assert ideal ** s * ideal ** t == ideal ** (s + t)


def test_intersect_examples(ring_xy):
    x, y = ideal_of(ring_xy, "x"), ideal_of(ring_xy, "y")
    assert x & y == ideal_of(ring_xy, "x*y")
    a = ideal_of(ring_xy, "x^2", "x*y")
    assert a & ideal_of(ring_xy, "y^2") == ideal_of(ring_xy, "x*y^2")


def test_intersect_equals_product_on_disjoint_blocks():
    # ideals supported in disjoint variables: intersection = product
    rng = random.Random(11)
    T = Ring("T", ("x1", "x2", "y1", "y2"))
    for _ in range(20):
        a_gens = [(rng.randint(0, 3), rng.randint(0, 3), 0, 0) for _ in range(3)]
        b_gens = [(0, 0, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
        A = MonomialIdeal.from_exponents(T, [g for g in a_gens if sum(g)])
        B = MonomialIdeal.from_exponents(T, [g for g in b_gens if sum(g)])
        assert A & B == A * B


def test_colon_examples(ring_xy):
    a = ideal_of(ring_xy, "x^2", "x*y")
    assert a.colon(parse_monomial(ring_xy, "x")) == maxideal_power(ring_xy, None, 1)
    assert a.colon(ideal_of(ring_xy, "x")) == maxideal_power(ring_xy, None, 1)
    with pytest.raises(DomainError):
        a.colon(MonomialIdeal.zero(ring_xy))


def test_colon_membership_adjunction(ring_xy):
    # member(A : m, u) iff member(A, u*m), exhaustively in small degrees
    rng = random.Random(3)
    for _ in range(5):
        A = random_ideal(rng, ring_xy, max_gens=4, max_deg=4)
        if A.is_zero():
            continue
        m = parse_monomial(ring_xy, "x*y")
        quotient = A.colon(m)
        for e1 in range(4):
            for e2 in range(4):
                u = (e1, e2)
                lifted = (e1 + 1, e2 + 1)
                assert quotient.member(u) == A.member(lifted)


def test_contains_and_member(ring_xy):
    x2 = ideal_of(ring_xy, "x^2")
    assert not x2.member(parse_monomial(ring_xy, "x"))
    assert x2.member(parse_monomial(ring_xy, "x^3"))
    assert x2.contains(MonomialIdeal.zero(ring_xy))
    assert not MonomialIdeal.zero(ring_xy).contains(x2)


def test_maxideal_power_examples(ring_xy):
    assert str(maxideal_power(ring_xy, None, 2)) == "x^2, x*y, y^2"
    assert maxideal_power(ring_xy, None, 0).is_unit()
    T = tensor_ring("T", Ring("R", ("x", "y")), Ring("S", ("u",)))
    mm = maxideal_power(T, "R", 1)
    assert mm.gens == ((1, 0, 0), (0, 1, 0))


def test_star_derivative_examples(ring_xy):
    assert star_derivative(ideal_of(ring_xy, "x^2*y")) == ideal_of(ring_xy, "x^2", "x*y")
    R1 = Ring("A", ("a",))
    assert star_derivative(ideal_of(R1, "a^2")) == ideal_of(R1, "a")
    with pytest.raises(DomainError):
        star_derivative(MonomialIdeal.zero(ring_xy))


def test_star_derivative_certificate_case(ring_xy):
    # the monomial Tor-vanishing certificate at s = t = 2 for (x,y)^2
    m2 = maxideal_power(ring_xy, None, 2)
    small = m2 ** 2
    big = maxideal_power(ring_xy, None, 1) * m2
    assert big.contains(star_derivative(small))


def test_component_ideal_examples(ring_xy):
    a = ideal_of(ring_xy, "x^2", "y^3")
    assert component_ideal(a, 2) == ideal_of(ring_xy, "x^2")
    assert component_ideal(a, 3) == ideal_of(ring_xy, "x^3", "x^2*y", "y^3")
    m2 = maxideal_power(ring_xy, None, 2)
    assert component_ideal(m2, 2) == m2
    with pytest.raises(CapError):
        component_ideal(a, 100)


def test_tensor_embed_examples(appendix_ring):
    R1 = Ring("A", ("x",))
    T = tensor_ring("T", R1, Ring("B", ("y",)))
    emb = tensor_embed(ideal_of(R1, "x^2"), T)
    assert emb.gens == ((2, 0),)
    assert tensor_embed(MonomialIdeal.zero(R1), T).is_zero()
    # the 11-generator ideal keeps its generator count in a bigger ring
    I = ideal_of(appendix_ring, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x",
                 "a*c*y", "b*d*y", "a*d*z", "b*c*z", "c*d*y*z*t")
    T2 = tensor_ring("T2", appendix_ring, Ring("S", ("u",)))
    assert len(tensor_embed(I, T2).gens) == 11


def test_degree_data(appendix_ring):
    I = ideal_of(appendix_ring, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x",
                 "a*c*y", "b*d*y", "a*d*z", "b*c*z", "c*d*y*z*t")
    assert I.t0() == 5
    assert I.indeg() == 2
    assert not I.is_equigenerated()
    m3 = maxideal_power(appendix_ring, None, 3)
    assert m3.t0() == m3.indeg() == 3 and m3.is_equigenerated()
    ab = ideal_of(appendix_ring, "a*b*x", "c*d*x")
    assert ab.support() == ("a", "b", "c", "d", "x")


def test_ring_mismatch_rejected(ring_xy):
    other = Ring("Q", ("u", "v"))
    with pytest.raises(RingMismatchError):
        ideal_of(ring_xy, "x") + ideal_of(other, "u")


def test_product_distributes_over_sum():
    rng = random.Random(23)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(10):
        a = random_ideal(rng, ring, max_gens=3, max_deg=3)
        b = random_ideal(rng, ring, max_gens=3, max_deg=3)
        c = random_ideal(rng, ring, max_gens=3, max_deg=3)
        assert a * (b + c) == a * b + a * c
