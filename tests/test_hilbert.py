"""Finite-length quotient regularity: the top degree where big/small is nonzero."""

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberlab import DomainError, MonomialIdeal, Ring, finite_length_reg, maxideal_power

from conftest import count_in_ideal_bruteforce, ideal_of


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


def _count_gaps(big: MonomialIdeal, small: MonomialIdeal, top: int) -> list[int]:
    """Degrees up to ``top`` where big has more monomials than small."""
    return [d for d in range(top + 1)
            if count_in_ideal_bruteforce(big, d) != count_in_ideal_bruteforce(small, d)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(Ring("R", tuple("xyzw"[:n]))),
    st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=4),
    st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4),
    st.integers(1, 3),
)))
# big & m^2 = (x^2, x*y, y^3) for big = (x, y^3): y^3 is a minimal generator of
# big & (small : m) that lies in small, so it must not count as the top degree
@example((Ring("R", ("x", "y")), [(1, 0), (0, 3)], [(0, 1)], 2))
def test_finite_length_reg_matches_bruteforce_counts(case):
    ring, big_gens, other_gens, k = case
    big = MonomialIdeal.from_exponents(ring, big_gens)
    mk = maxideal_power(ring, None, k)
    past = big.t0() + k  # big/(m^k big) and big/(big & m^k) vanish from here on
    # finite length; big & m^k is big itself when big starts in degree k or later
    for small in (mk * big, big & mk):
        gaps = _count_gaps(big, small, past)
        assert past not in gaps
        assert finite_length_reg(big, small) == (gaps[-1] if gaps else None)
    # infinite length: x is a nonzerodivisor modulo an ideal that avoids it,
    # so big/(big & beside) is nonzero in every degree from t0(big) on
    beside = MonomialIdeal.from_exponents(ring, [(0,) + g[1:] for g in other_gens])
    small = big & beside
    if small == big:
        assert finite_length_reg(big, small) is None
    else:
        assert count_in_ideal_bruteforce(big, past) > count_in_ideal_bruteforce(small, past)
        with pytest.raises(DomainError, match="not of finite length"):
            finite_length_reg(big, small)
    # not contained: m^k big is strictly smaller than big
    with pytest.raises(DomainError, match="not contained"):
        finite_length_reg(mk * big, big)
