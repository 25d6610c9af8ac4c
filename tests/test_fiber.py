"""Fiber products, filtrations, splittings, and the formula checks."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from fiberlab import (
    DomainError,
    MonomialIdeal,
    Ring,
    check_componentwise,
    check_depth_formula,
    check_reg_formula,
    check_reg_increasing,
    fiber_product,
    filtration,
    maxideal_power,
    reg_of,
    star_derivative,
    verify_betti_splitting,
    verify_tor_vanishing_lemma,
)
from fiberlab.ideals import monomials_of_degree
from fiberlab.scenarios import remark_55_setup

from fiberlab import fiber
from fiberlab.fiber import Filtration

from conftest import ideal_of
from test_acceptance import _sample_equigenerated


def _setup_squares():
    R = Ring("A", ("x",))
    S = Ring("B", ("y",))
    return fiber_product(ideal_of(R, "x^2"), ideal_of(S, "y^2"))


def random_equigenerated(rng, name):
    n = rng.randint(1, 3)
    ring = Ring(name, tuple(f"{name.lower()}{i}" for i in range(1, n + 1)))
    degree = rng.choice([2, 2, 2, 3])
    pool = list(monomials_of_degree(ring, degree))
    gens = rng.sample(pool, rng.randint(1, min(4, len(pool))))
    return MonomialIdeal.from_exponents(ring, gens)


def test_fiber_product_examples():
    setup = _setup_squares()
    assert str(setup.F) == "x^2, x*y, y^2"
    assert str(setup.H) == "x^2, x*y"
    zero_setup = fiber_product(
        MonomialIdeal.zero(Ring("A", ("x",))), MonomialIdeal.zero(Ring("B", ("y",)))
    )
    assert zero_setup.F == zero_setup.mm * zero_setup.nn
    r55 = remark_55_setup()
    assert len(r55.F.gens) == 5 + 1 + 3


def test_fiber_product_requires_square_containment():
    R = Ring("A", ("x",))
    S = Ring("B", ("y",))
    with pytest.raises(DomainError):
        fiber_product(ideal_of(R, "x"), ideal_of(S, "y^2"))


def test_filtration_example():
    setup = _setup_squares()
    filt = filtration(setup, 2)
    assert filt.sum_ok and all(filt.intersection_ok)
    assert filt.stages[-1] == maxideal_power(setup.T, None, 4)
    assert filt.stages[0] == setup.H ** 2
    # s = 1 reduces to F = H + J with H & J = mJ
    filt1 = filtration(setup, 1)
    assert filt1.stages[-1] == setup.F
    assert (setup.H & setup.J) == setup.mm * setup.J


def test_failed_filtration_identity_is_a_flag_not_an_exception():
    # a setup whose F is not I + J + mn breaks G_s = F^s: the flag reports it
    setup = _setup_squares()
    broken = dataclasses.replace(setup, F=setup.I + setup.J)
    filt = filtration(broken, 2)
    assert not filt.sum_ok
    assert all(filt.intersection_ok)


def test_filtration_random_pairs():
    rng = random.Random(2)
    for _ in range(6):
        setup = fiber_product(random_equigenerated(rng, "A"), random_equigenerated(rng, "B"))
        for s in (1, 2, 3):
            filt = filtration(setup, s)
            assert filt.sum_ok and all(filt.intersection_ok)


def _filtration_by_its_formulas(setup, s: int) -> Filtration:
    """The filtration as its definition reads, each power a repeated product:
    (mn)^(s-t) J^t, and m^(s-t+1) n^(s-t) J^t for the intersection identity."""
    mn = setup.mm * setup.nn
    stages = [setup.H ** s]
    added, inters, flags = [], [], []
    for t in range(1, s + 1):
        piece = (mn ** (s - t)) * (setup.J ** t)
        added.append(piece)
        meet = stages[-1] & piece
        inters.append(meet)
        expected = (setup.mm ** (s - t + 1)) * (setup.nn ** (s - t)) * (setup.J ** t)
        flags.append(meet == expected)
        stages.append(stages[-1] + piece)
    return Filtration(setup, s, tuple(stages), tuple(added), tuple(inters), tuple(flags),
                      stages[-1] == setup.F ** s)


def test_filtration_equals_its_formulas_on_criterion_9_pairs():
    # the 25 pairs of criterion 9 (test_acceptance.run9_sample), a broken setup and a
    # zero factor: every field as the repeated products give it
    rng = random.Random(97)
    pairs = [(_sample_equigenerated(rng, "A"), _sample_equigenerated(rng, "B"))
             for _ in range(25)]
    setups = [fiber_product(left, right) for left, right in pairs]
    setups.append(dataclasses.replace(_setup_squares(), F=_setup_squares().I))
    setups.append(fiber_product(ideal_of(Ring("A", ("x", "y")), "x^2", "x*y"),
                                MonomialIdeal.zero(Ring("B", ("u",)))))
    for setup in setups:
        for s in (1, 2, 3):
            got, want = filtration(setup, s), _filtration_by_its_formulas(setup, s)
            for field in dataclasses.fields(Filtration):
                assert getattr(got, field.name) == getattr(want, field.name), (setup, s, field)


def test_splitting_hand_example(ring_xy):
    total = maxideal_power(ring_xy, None, 2)
    a = ideal_of(ring_xy, "x^2", "x*y")
    b = ideal_of(ring_xy, "y^2")
    report = verify_betti_splitting(total, a, b, 0, threads=1)
    assert report.passed
    assert report.computed["bettiTotals"] == [3, 2]


def test_splitting_requires_decomposition(ring_xy):
    with pytest.raises(DomainError):
        verify_betti_splitting(
            maxideal_power(ring_xy, None, 2),
            ideal_of(ring_xy, "x^2"),
            ideal_of(ring_xy, "y^2"),
            0,
        )


def test_tor_vanishing_lemma_modes(ring_xy):
    principal = ideal_of(Ring("A", ("x",)), "x^3")
    for mode in ("certificate", "exact"):
        report = verify_tor_vanishing_lemma(principal, 3, mode, 0)
        assert report.passed
    m2 = maxideal_power(ring_xy, None, 2)
    assert verify_tor_vanishing_lemma(m2, 2, "certificate").passed
    assert verify_tor_vanishing_lemma(m2, 2, "exact", 0).passed
    with pytest.raises(DomainError):
        verify_tor_vanishing_lemma(ideal_of(ring_xy, "x"), 2, "certificate")


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_lemma_steps_match_separately_built_ideals(s, monkeypatch):
    # each step t maps m^(s-t) I^t into m^(s-t+1) I^(t-1), both built here from scratch,
    # and its verdict is the one those two ideals get
    ring = Ring("R", ("x", "y", "z"))
    asked = []
    vanishing = fiber.tor_vanishing
    monkeypatch.setattr(fiber, "tor_vanishing",
                        lambda small, big, *a, **k: asked.append((small, big)) or vanishing(
                            small, big, *a, **k))
    for ideal in (ideal_of(ring, "x^2", "x*y"), ideal_of(ring, "x^2", "y*z", "x*z^2")):
        steps = [(maxideal_power(ring, None, s - t) * ideal ** t,
                  maxideal_power(ring, None, s - t + 1) * ideal ** (t - 1))
                 for t in range(1, s + 1)]
        for mode in ("certificate", "exact"):
            asked.clear()
            if mode == "certificate":
                want = [big.contains(star_derivative(small)) for small, big in steps]
            else:
                want = [vanishing(small, big, 0)[0] for small, big in steps]
            report = verify_tor_vanishing_lemma(ideal, s, mode, 0)
            assert report.computed["perStep"] == {f"t={t}": ok for t, ok in enumerate(want, 1)}
            assert asked == (steps if mode == "exact" else [])


def test_tor_vanishing_lemma_exact_on_the_appendix_ideal(appendix_ring):
    # lemma 4.1 at the paper's scale, decided on the lattice engine over Q: the
    # Koszul strands ran past 120 s here, and over GF(32003) passed the dense limit
    ideal = ideal_of(appendix_ring, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x",
                     "a*c*y", "b*d*y", "a*d*z", "b*c*z", "c*d*y*z*t")
    report = verify_tor_vanishing_lemma(ideal, 2, "exact", 0)
    assert report.passed
    assert report.computed == {"allVanishing": True, "perStep": {"t=1": True, "t=2": True}}


def test_reg_formula_square_example():
    setup = _setup_squares()
    report = check_reg_formula(setup, 2, 0, threads=1)
    assert report.passed
    assert report.computed["regFs"] == 4


def test_reg_formula_with_zero_factor():
    R = Ring("A", ("x", "y"))
    S = Ring("B", ("u",))
    setup = fiber_product(ideal_of(R, "x^2", "x*y"), MonomialIdeal.zero(S))
    for s in (1, 2, 3):
        report = check_reg_formula(setup, s, 0, threads=1)
        assert report.passed, report.computed
    both_zero = fiber_product(MonomialIdeal.zero(R), MonomialIdeal.zero(S))
    for s in (1, 2):
        report = check_reg_formula(both_zero, s, 0, threads=1)
        assert report.passed
        assert report.computed["regFs"] == 2 * s


def test_depth_formula_examples():
    setup = _setup_squares()
    r1 = check_depth_formula(setup, 1, 0, threads=1)
    assert r1.passed and r1.computed["depthF"] == 1
    r2 = check_depth_formula(setup, 2, 0, threads=1)
    assert r2.passed and r2.computed["depthFs"] == 1
    # both factors zero: excluded from the depth-1 statement, depth mn = 2
    both_zero = fiber_product(
        MonomialIdeal.zero(Ring("A", ("x",))), MonomialIdeal.zero(Ring("B", ("y",)))
    )
    r3 = check_depth_formula(both_zero, 2, 0, threads=1)
    assert r3.passed and r3.computed["depthFs"] == 2


def test_depth_formula_quotient_form():
    rng = random.Random(8)
    for _ in range(5):
        setup = fiber_product(random_equigenerated(rng, "A"), random_equigenerated(rng, "B"))
        report = check_depth_formula(setup, 1, 0, threads=1)
        assert report.passed, (report.computed, report.expected)


def test_reg_fiber_product_is_max():
    # at s = 1 the regularity of the fiber product is the max of the factors
    rng = random.Random(19)
    for _ in range(8):
        I = random_equigenerated(rng, "A")
        J = random_equigenerated(rng, "B")
        setup = fiber_product(I, J)
        expected = max(reg_of(I, 0), reg_of(J, 0))
        assert reg_of(setup.F, 0) == expected


def test_componentwise_biconditional_examples():
    R = Ring("A", ("x", "y"))
    S = Ring("B", ("u",))
    linear_pair = fiber_product(
        maxideal_power(R, None, 2), ideal_of(S, "u^2")
    )
    assert check_componentwise(linear_pair, 2, 0).passed
    broken = fiber_product(ideal_of(R, "x^2", "y^2"), ideal_of(S, "u^2"))
    report = check_componentwise(broken, 1, 0)
    assert report.passed  # biconditional holds: both sides are non-linear
    assert not report.computed["perPower"]["i=1"]["fiber"]


def test_one_sided_linearity_transfer():
    # if the fiber product power is componentwise linear, both factors are
    from fiberlab import is_componentwise_linear

    rng = random.Random(83)
    for _ in range(6):
        I = random_equigenerated(rng, "A")
        J = random_equigenerated(rng, "B")
        setup = fiber_product(I, J)
        for s in (1, 2):
            if is_componentwise_linear(setup.F ** s, 0):
                assert is_componentwise_linear(I ** s, 0)
                assert is_componentwise_linear(J ** s, 0)


def test_reg_increasing_random():
    rng = random.Random(4)
    for _ in range(5):
        setup = fiber_product(random_equigenerated(rng, "A"), random_equigenerated(rng, "B"))
        report = check_reg_increasing(setup, 3, 0)
        assert report.passed, report.computed


def _factor_ideals(name: str):
    """Nonzero monomial ideals of degree 2 to 4 in a ring with one or two variables."""
    def build(n):
        ring = Ring(name, tuple(f"{name.lower()}{i}" for i in range(1, n + 1)))
        monomials = st.lists(st.integers(0, n - 1), min_size=2, max_size=4)  # variable indices
        return st.lists(monomials, min_size=1, max_size=4).map(
            lambda gens: MonomialIdeal.from_exponents(
                ring, [tuple(g.count(v) for v in range(n)) for g in gens]))
    return st.integers(1, 2).flatmap(build)


@settings(max_examples=40, deadline=None)
@given(_factor_ideals("A"), _factor_ideals("B"))
def test_fiber_product_splittings_random(left, right):
    setup = fiber_product(left, right)
    report = verify_betti_splitting(setup.F, setup.H, setup.J, 0, threads=1)
    assert report.passed, report.computed
    filt = filtration(setup, 2)
    assert filt.sum_ok and all(filt.intersection_ok)
    for t in (1, 2):
        step = verify_betti_splitting(
            filt.stages[t], filt.stages[t - 1], filt.added[t - 1], 0, threads=1
        )
        assert step.passed, (t, step.computed)
