"""Regularity, depth, linearity, and the regularity of powers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fiberlab import (
    DomainError,
    MonomialIdeal,
    Ring,
    has_linear_resolution,
    invariants_of,
    is_componentwise_linear,
    maxideal_power,
    reg_of,
)
from fiberlab.invariants import reg_maxideal_power_formula
from fiberlab.scenarios import appendix_ideals, remark_55_setup

from conftest import componentwise_linear_every_degree, ideal_of, random_ideal


def test_maximal_ideal_invariants(ring_xyz):
    inv = invariants_of(maxideal_power(ring_xyz, None, 1), 0)
    assert (inv.reg, inv.pdim, inv.depth) == (1, 2, 1)
    assert inv.depth_quotient == 0
    assert inv.reg_quotient == 0
    assert inv.t0 == inv.indeg == 1


def test_invariants_reject_zero_and_unit(ring_xy):
    with pytest.raises(DomainError):
        invariants_of(MonomialIdeal.zero(ring_xy), 0)
    with pytest.raises(DomainError):
        invariants_of(MonomialIdeal.unit(ring_xy), 0)


def test_invariants_consistency_random():
    rng = random.Random(71)
    ring = Ring("R", ("x", "y", "z", "w"))
    for _ in range(10):
        ideal = random_ideal(rng, ring, max_gens=5, max_deg=3)
        if not ideal.is_proper():
            continue
        inv = invariants_of(ideal, 0)
        assert inv.reg >= inv.t0 >= inv.indeg
        assert inv.depth == ring.nvars - inv.pdim
        assert 1 <= inv.depth <= ring.nvars


def test_remark_55_values():
    setup = remark_55_setup()
    I = setup.I_left
    assert reg_of(I, 0) == 8
    assert reg_of(I ** 2, 0) == 8
    assert reg_of(maxideal_power(setup.left, None, 1) * I, 0) == 9


def test_linear_resolution_examples(ring_xy):
    for s in (1, 2, 3):
        assert has_linear_resolution(maxideal_power(ring_xy, None, s), 0)
    assert not has_linear_resolution(ideal_of(ring_xy, "x^2", "y^2"), 0)
    assert reg_of(ideal_of(ring_xy, "x^2", "y^2"), 0) == 3
    assert reg_of(ideal_of(ring_xy, "x^2", "x*y"), 0) == 2


def test_componentwise_linear_examples(ring_xy):
    assert is_componentwise_linear(maxideal_power(ring_xy, None, 2), 0)
    assert not is_componentwise_linear(ideal_of(ring_xy, "x^2", "y^2"), 0)
    assert is_componentwise_linear(ideal_of(ring_xy, "x^2", "x*y"), 0)


def test_componentwise_nonequigenerated():
    # componentwise linear with generators in two degrees
    ring = Ring("R", ("x", "y"))
    ideal = ideal_of(ring, "x^2", "x*y", "y^3")
    assert is_componentwise_linear(ideal, 0)


def test_componentwise_linearity_stops_below_t0():
    # the components up to reg = 129 of (x^65, y^65) are never built: reg > t0
    # answers first, and (x^65) needs no component at all
    ring = Ring("R", ("x", "y"))
    assert is_componentwise_linear(ideal_of(ring, "x^65"), 0)
    assert not is_componentwise_linear(ideal_of(ring, "x^65", "y^65"), 0)
    # reg = t0 = 3, and only the component below t0, (x^2, y^2), is not linear
    ideal = ideal_of(Ring("R", ("x", "y", "z")), "x^2", "y^2", "x*y*z")
    assert reg_of(ideal, 0) == ideal.t0() == 3
    assert not is_componentwise_linear(ideal, 0)


def test_componentwise_linearity_builds_components_past_degree_64():
    # reg = t0 = 71 and a generator of degree 70 below t0: its component is built
    # at d = 70, past the degree cap of 64 that component ideals had, which refused it
    ring = Ring("R", ("x", "y"))
    m71 = maxideal_power(ring, None, 71)
    linear = ideal_of(ring, "x^70") + m71
    square = ideal_of(ring, "x^70", "y^70") + m71  # its degree-70 component has reg 139
    for ideal, answer in ((linear, True), (square, False)):
        assert reg_of(ideal, 0) == ideal.t0() == 71
        assert is_componentwise_linear(ideal, 0) is answer
        assert componentwise_linear_every_degree(ideal, 0) is answer


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=5
    ).map(lambda gens: MonomialIdeal.from_exponents(Ring("R", tuple("xyzw"[:n])), gens))
), st.sampled_from([0, 32003]))
def test_componentwise_linearity_matches_every_degree_check(ideal, char):
    assert is_componentwise_linear(ideal, char) == \
        componentwise_linear_every_degree(ideal, char)


def test_tensor_additivity_random():
    # reg, pdim, depth add across disjoint variable blocks
    rng = random.Random(55)
    T = Ring("T", ("x1", "x2", "y1", "y2"))
    X = Ring("X", ("x1", "x2"))
    Y = Ring("Y", ("y1", "y2"))
    for _ in range(8):
        a2 = random_ideal(rng, X, max_gens=3, max_deg=3)
        b2 = random_ideal(rng, Y, max_gens=3, max_deg=3)
        if not (a2.is_proper() and b2.is_proper()):
            continue
        a_t = MonomialIdeal.from_exponents(T, [g + (0, 0) for g in a2.gens])
        b_t = MonomialIdeal.from_exponents(T, [(0, 0) + g for g in b2.gens])
        inv_prod = invariants_of(a_t * b_t, 0)
        inv_a = invariants_of(a2, 0)
        inv_b = invariants_of(b2, 0)
        assert inv_prod.reg == inv_a.reg + inv_b.reg
        assert inv_prod.pdim == inv_a.pdim + inv_b.pdim
        assert inv_prod.depth == inv_a.depth + inv_b.depth


def test_depth_after_maximal_ideal_multiplication():
    # depth(m * A) = 1 for every nonzero proper monomial ideal A
    rng = random.Random(29)
    ring = Ring("R", ("x", "y", "z"))
    mm = maxideal_power(ring, None, 1)
    for _ in range(8):
        ideal = random_ideal(rng, ring, max_gens=4, max_deg=3)
        if not ideal.is_proper():
            continue
        assert invariants_of(ideal, 0).depth >= 1
        assert invariants_of(mm * ideal, 0).depth == 1


def test_reg_maxideal_power_formula_matches():
    setup = remark_55_setup()
    I = setup.I_left
    for i in (1, 2):
        direct, formula = reg_maxideal_power_formula(I, i, 0)
        assert direct == formula


def test_maximal_ideal_square_power_regularity(ring_xy):
    square = maxideal_power(ring_xy, None, 2)
    assert [reg_of(square ** s, 0) for s in (1, 2, 3, 4)] == [2, 4, 6, 8]


def test_appendix_ideal_power_regularity():
    env = appendix_ideals(32003)
    regs = [reg_of(env["I"] ** s, 32003) for s in (1, 2, 3, 4)]
    assert regs == [5, 8, 9, 11]
