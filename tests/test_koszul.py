"""The Koszul-strand Tor engine: its Tor table, induced maps and Tor-vanishing."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberlab import koszul, linalg
from fiberlab import (
    DomainError,
    MonomialIdeal,
    Ring,
    betti_table,
    maxideal_power,
    star_derivative,
    tor_vanishing,
)
from fiberlab.errors import CapError, InternalError
from fiberlab.config import Caps
from fiberlab.koszul import tor_map

from conftest import ideal_of, koszul_tor, random_ideal


def test_examples(ring_xy):
    mm = maxideal_power(ring_xy, None, 1)
    assert koszul_tor(mm, 0) == {(0, 1): 2, (1, 2): 1}
    assert koszul_tor(ideal_of(ring_xy, "x^2", "x*y"), 0) == {(0, 2): 2, (1, 3): 1}
    assert koszul_tor(maxideal_power(ring_xy, None, 3), 0) == {(0, 3): 4, (1, 4): 3}


def test_agreement_with_lattice_engine_random():
    rng = random.Random(12)
    for nvars in (2, 3, 4):
        ring = Ring("R", tuple(f"x{i}" for i in range(nvars)))
        for _ in range(6):
            ideal = random_ideal(rng, ring, max_gens=4, max_deg=3)
            if ideal.is_zero():
                continue
            for char in (0, 32003):
                assert koszul_tor(ideal, char) == betti_table(ideal, char, threads=1).coarse()


def test_tor_vanishing_examples(ring_xy):
    mm = maxideal_power(ring_xy, None, 1)
    m2 = maxideal_power(ring_xy, None, 2)
    assert tor_vanishing(m2, mm, 0) == (True, None)
    ok, witness = tor_vanishing(mm, mm, 0)
    assert not ok and witness == (0, 1)
    # the power-shift map at s = t = 2 for (x,y)^2
    small = m2 ** 2
    big = mm * m2
    assert tor_vanishing(small, big, 0) == (True, None)
    assert tor_vanishing(small, big, 32003) == (True, None)


def test_identity_maps_are_identities(ring_xy):
    ideal = ideal_of(ring_xy, "x^2", "x*y")
    maps = tor_map(ideal, ideal, 0)
    for (i, j), mat in maps.items():
        assert len(mat) == len(mat[0])
        for r, row in enumerate(mat):
            for c, v in enumerate(row):
                assert type(v) is Fraction and v == (1 if r == c else 0)


def test_functoriality_of_induced_maps(ring_xy):
    # A <= B <= C: the composite of induced matrices equals the map of A <= C
    A = maxideal_power(ring_xy, None, 3)
    B = maxideal_power(ring_xy, None, 2)
    C = maxideal_power(ring_xy, None, 1)
    ab = tor_map(A, B, 0)
    bc = tor_map(B, C, 0)
    ac = tor_map(A, C, 0)
    for key, m_ac in ac.items():
        m_ab = ab.get(key)
        if m_ab is None:
            continue
        m_bc = bc.get(key)
        rows = len(m_ac)
        cols = len(m_ac[0]) if rows else 0
        mid = len(m_ab)
        for r in range(rows):
            for c in range(cols):
                total = Fraction(0)
                for k in range(mid):
                    if m_bc is not None:
                        total += m_bc[r][k] * m_ab[k][c]
                assert total == m_ac[r][c]


def test_star_derivative_certificate_implies_vanishing():
    # d*(A) <= B forces the induced Tor maps of A <= B to vanish
    rng = random.Random(77)
    ring = Ring("R", ("x", "y"))
    checked = 0
    while checked < 8:
        A = random_ideal(rng, ring, max_gens=3, max_deg=4, min_deg=2)
        if A.is_zero() or A.is_unit():
            continue
        extra = random_ideal(rng, ring, max_gens=2, max_deg=3)
        B = star_derivative(A) + extra
        if not B.contains(A):
            continue
        assert B.contains(star_derivative(A))
        ok, _ = tor_vanishing(A, B, 0)
        assert ok, (str(A), str(B))
        checked += 1


def test_tor_map_requires_containment(ring_xy):
    with pytest.raises(DomainError):
        tor_map(maxideal_power(ring_xy, None, 1), maxideal_power(ring_xy, None, 2), 0)


def test_escaped_cycle_is_an_internal_error(ring_xy, monkeypatch):
    # a cycle image outside the target's cycle space cannot happen; if it
    # did, it is a bug (InternalError, CLI exit 4), not a failed claim
    monkeypatch.setattr(koszul, "coordinates_in_span", lambda *args: None)
    mm = maxideal_power(ring_xy, None, 1)
    with pytest.raises(InternalError, match="escaped"):
        tor_map(mm ** 2, mm, 0)


def test_basis_cap(ring_xy):
    m3 = maxideal_power(ring_xy, None, 3)
    caps = Caps(koszul_basis=3)
    for call in (lambda: koszul_tor(m3, 0, caps), lambda: tor_vanishing(m3, m3, 0, caps)):
        with pytest.raises(CapError) as raised:
            call()
        message = str(raised.value)
        assert "over cap koszul_basis=3 (set FIBERLAB_CAPS=koszul_basis=<value>)" in message


@st.composite
def inclusions(draw):
    """(small, big) with small <= small + extra or small <= d*(small) + extra."""
    n = draw(st.integers(1, 4))
    ring = Ring("R", tuple("xyzw"[:n]))
    monomials = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    small = MonomialIdeal.from_exponents(ring, draw(st.lists(monomials, min_size=1, max_size=4)))
    extra = MonomialIdeal.from_exponents(ring, draw(st.lists(monomials, max_size=2)))
    base = star_derivative(small) if draw(st.booleans()) else small
    return small, base + extra


def _raise(*_args, **_kwargs):
    raise AssertionError("the dense toolkit was called")


@settings(max_examples=80, deadline=None)
@given(inclusions(), st.sampled_from([0, 32003]))
@example((ideal_of(Ring("R", ("x", "y")), "x^2", "y"),) * 2, 0)  # witness (0, 1)
@example((ideal_of(Ring("R", ("x", "y")), "x*y^3", "x^2*y"),  # witness (1, 5)
          ideal_of(Ring("R", ("x", "y")), "y^3", "x^2")), 32003)
def test_tor_vanishing_matches_tor_map(inclusion, char):
    small, big = inclusion
    with pytest.MonkeyPatch.context() as patch:  # verdicts come from ranks alone
        for owner, name in ((koszul, "tor_map"), (koszul, "rref"), (koszul, "nullspace"),
                            (koszul, "coordinates_in_span"), (linalg, "rref")):
            patch.setattr(owner, name, _raise)
        verdict = tor_vanishing(small, big, char)
    nonzero = [key for key, mat in tor_map(small, big, char).items()
               if any(v for row in mat for v in row)]
    assert verdict == (not nonzero, min(nonzero, default=None))
