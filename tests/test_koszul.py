"""The Koszul-strand Tor engine: its Tor table, induced maps and Tor-vanishing verdicts,
and the lattice engine's Tor-vanishing checked against them."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberlab import betti, fiber, koszul, linalg
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

from conftest import ideal_of, koszul_tor, random_ideal, tor_vanishing_by_strands


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


def test_tor_vanishing_stops_at_a_witness_in_homological_degree_zero(monkeypatch):
    # (a,b,c,d)^3 into itself: the identity on Tor_0 in degree 3 is the least
    # witness there can be, so the strands of degree 4 up to the top lattice
    # degree 12 are never built
    ring = Ring("R", ("a", "b", "c", "d"))
    cube = maxideal_power(ring, None, 3)
    built = []
    init = koszul._StrandComplex.__init__

    def spy(self, ideal, j, *rest):
        built.append(j)
        init(self, ideal, j, *rest)

    monkeypatch.setattr(koszul._StrandComplex, "__init__", spy)
    assert tor_vanishing_by_strands(cube, cube, 0) == (False, (0, 3))
    assert max(built) == 3
    assert koszul.max_lattice_degree(cube) == 12


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


def test_basis_cap(ring_xy, monkeypatch):
    # the strands' fixed limit: the ring's degree-3 monomials, 4 of them, pass 3 first;
    # under 5 the monomials fit, and strand (1, 4), 4 cubes times 2 variables, does not
    # (the strands' verdict stops at its degree-0 witness in j = 3, before that strand)
    m3 = maxideal_power(ring_xy, None, 3)
    calls = [lambda: koszul_tor(m3, 0), lambda: tor_map(m3, m3, 0)]
    for limit, reached, also in ((3, "the ring's degree-3 monomials reached 4",
                                  [lambda: tor_vanishing_by_strands(m3, m3, 0)]),
                                 (5, "strand (1,4) reached a basis of 8 elements", [])):
        monkeypatch.setattr(koszul, "STRAND_LIMIT", limit)
        for call in calls + also:
            with pytest.raises(CapError) as raised:
                call()
            assert str(raised.value) == (f"{reached}, over the fixed limit of {limit} "
                                         "(not a FIBERLAB_CAPS cap; it cannot be raised)")


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


def rp2_loop_inclusion() -> tuple[MonomialIdeal, MonomialIdeal]:
    """small <= big in six variables whose complexes at (1, ..., 1) are the loop
    0-1-3 inside the 6-vertex RP^2: x^(b - tau) lies in small iff tau is inside
    an edge of the loop, and in big iff tau is inside a triangle of RP^2.  The
    loop is not a boundary, but twice it is, so the map on H-tilde_1 is zero over
    Q and nonzero over GF(2)."""
    ring = Ring("R", tuple(f"x{v}" for v in range(6)))
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]

    def outside(face):
        return tuple(int(v not in face) for v in range(6))

    small = MonomialIdeal.from_exponents(ring, [outside(e) for e in ((0, 1), (1, 3), (0, 3))])
    return small, MonomialIdeal.from_exponents(ring, [outside(t) for t in triangles])


def test_tor_vanishing_sees_torsion_in_the_map():
    small, big = rp2_loop_inclusion()
    assert tor_vanishing(small, big, 0) == (True, None)
    assert tor_vanishing(small, big, 2) == (False, (2, 6))
    assert tor_vanishing(small, big, 3) == (True, None)
    assert tor_vanishing_by_strands(small, big, 2) == (False, (2, 6))


@settings(max_examples=120, deadline=None)
@given(inclusions(), st.sampled_from([0, 2, 32003]), st.booleans())
@example(rp2_loop_inclusion(), 0, True)
@example(rp2_loop_inclusion(), 2, False)
@example((ideal_of(Ring("R", ("x", "y")), "x^2", "y"),) * 2, 2, False)  # witness (0, 1)
@example((ideal_of(Ring("R", ("x", "y")), "x*y^3", "x^2*y"),  # witness (1, 5)
          ideal_of(Ring("R", ("x", "y")), "y^3", "x^2")), 0, False)
@example((ideal_of(Ring("R", ("x", "y", "z")), "x*y^2*z", "x*y*z^2", "x^2*y"),  # nonzero at
          ideal_of(Ring("R", ("x", "y", "z")), "x*z^2", "y^2*z", "x^2")), 0, False)  # (1, 5), (2, 6)
@example((ideal_of(Ring("R", ("x", "y", "z")), "x*y*z^2", "x^2*y", "x*y^2"),  # nonzero at
          ideal_of(Ring("R", ("x", "y", "z")), "y*z^2", "x^2", "y^2")), 0, False)  # (1, 4), (1, 5)
def test_tor_vanishing_matches_the_strands(inclusion, char, certify):
    # the lattice verdict and witness equal the Koszul strands', with the ranks
    # over Q certified over GF(2^31 - 1) or over GF(2) from the first face on,
    # where they would be left to rank_exact at once
    small, big = inclusion
    with pytest.MonkeyPatch.context() as patch:
        if certify:
            patch.setattr(betti, "_CERTIFY_MIN_FACES", 0)
            if char == 0:
                patch.setattr(betti, "_CERTIFYING_PRIME", 2)
        verdict = tor_vanishing(small, big, char)
    assert verdict == tor_vanishing_by_strands(small, big, char)


def test_tor_vanishing_stops_at_the_least_homological_degree(monkeypatch):
    # (x^2, y) into itself is the identity, nonzero already on Tor_0, which the
    # generators decide: no lattice is walked.  The cache starts empty, so every
    # verdict below is decided here, not read from one an earlier test left
    betti._CACHES.clear()
    walked, decided = [], []
    walked_table, factors, maps = betti._walked, betti._factors, betti._maps_nonzero
    monkeypatch.setattr(betti, "_walked", lambda *a, **k: walked.append(a) or walked_table(*a, **k))
    monkeypatch.setattr(betti, "_factors", lambda *a, **k: walked.append(a) or factors(*a, **k))
    monkeypatch.setattr(betti, "_maps_nonzero",
                        lambda pairs, m, i, char: decided.append(i) or maps(pairs, m, i, char))
    ring = Ring("R", ("x", "y"))
    same = ideal_of(ring, "x^2", "y")
    assert tor_vanishing(same, same, 0) == (False, (0, 1))
    assert walked == [] and decided == []
    # small has Tor_1 and Tor_2, shares no generator with big, and its first
    # nonzero map is at i = 1, so no map at i = 2 is decided
    ring = Ring("R", ("a", "b", "c"))
    small = ideal_of(ring, "a^2*c", "a*b*c", "a*c^2", "b^2")
    big = ideal_of(ring, "a^2", "c^2", "b")
    assert betti_table(small, 0, threads=1).coarse() == {(0, 2): 1, (0, 3): 3, (1, 4): 4,
                                                          (2, 5): 1}
    assert tor_vanishing(small, big, 0) == tor_vanishing_by_strands(small, big, 0) == (False, (1, 4))
    assert set(decided) == {1}


@settings(max_examples=80, deadline=None)
@given(inclusions(), st.sampled_from([0, 2, 32003]))
@example(rp2_loop_inclusion(), 2)
@example((ideal_of(Ring("R", ("x", "y")), "x*y^3", "x^2*y"),  # witness (1, 5)
          ideal_of(Ring("R", ("x", "y")), "y^3", "x^2")), 0)
# small has Tor_1 and Tor_2 at a^2*b*c*d^2, with one pair of complexes there: every map
# on Tor_1 is zero and the one on Tor_2 there is not, so the witness (2, 6) is missed if a
# verdict is keyed without its i
@example((ideal_of(Ring("R", ("a", "b", "c", "d")), "a^2*b*d^2", "a*b*c^2", "a*b*c*d", "a^2*c",
                   "c*d^2"),
          ideal_of(Ring("R", ("a", "b", "c", "d")), "a*b*c", "b*c*d", "a^2", "d^2")), 0)
def test_warm_verdicts_equal_cold_ones(inclusion, char):
    # a verdict read from the cache is the one the ranks decide, and the strands' too
    small, big = inclusion
    betti._CACHES.clear()
    cold = tor_vanishing(small, big, char)
    warm = tor_vanishing(small, big, char)
    assert cold == warm == tor_vanishing_by_strands(small, big, char)


def test_the_verdict_cache_keeps_the_fields_apart():
    # the map is zero over Q and nonzero over GF(2): a verdict of one field is never
    # read in the other, whichever comes first
    small, big = rp2_loop_inclusion()
    want = {0: (True, None), 2: (False, (2, 6))}
    for order in ((0, 2), (2, 0)):
        betti._CACHES.clear()
        for char in order:
            assert tor_vanishing(small, big, char) == want[char]
        for char in order:
            assert any(len(key) == 4 for key in betti._CACHES[char])


def test_a_repeated_verdict_decides_no_map(monkeypatch):
    decided = []
    maps = betti._maps_nonzero
    monkeypatch.setattr(betti, "_maps_nonzero",
                        lambda pairs, m, i, char: decided.append(len(pairs)) or maps(pairs, m, i, char))
    ring = Ring("R", ("a", "b", "c"))
    small = ideal_of(ring, "a^2*c", "a*b*c", "a*c^2", "b^2")
    big = ideal_of(ring, "a^2", "c^2", "b")
    betti._CACHES.clear()
    first = tor_vanishing(small, big, 0)
    assert first == (False, (1, 4)) and decided
    decided.clear()
    assert tor_vanishing(small, big, 0) == first
    assert decided == []


def two_supports_inclusion() -> tuple[MonomialIdeal, MonomialIdeal]:
    """(a*d^2, c^2*d, c*d^2) inside (a, c): the walk's one chunk and the Tor_1 verdicts
    each hold complexes on 3 vertices and on 2."""
    ring = Ring("R", ("a", "c", "d"))
    return ideal_of(ring, "a*d^2", "c^2*d", "c*d^2"), ideal_of(ring, "a", "c")


def test_verdicts_count_toward_the_cache_bound(monkeypatch):
    # complexes and verdicts share one bound and one emptying rule, in _cached, which
    # computes the groups of a walk's chunk and of a verdict's degree largest m first
    groups = []  # per _cached call: (its keys' length, the m of each group it computed)
    cached, entries = betti._cached, betti._CACHE_ENTRIES

    def spy(cache, keys, pending, compute):
        sizes: list[int] = []
        groups.append((len(keys[0]), sizes))
        return cached(cache, keys, pending, lambda inputs, m: sizes.append(m) or compute(inputs, m))

    monkeypatch.setattr(betti, "_cached", spy)
    for inclusion, char, several in [
        (rp2_loop_inclusion, 2, []),
        # (keys' length, the m computed): the walk's one chunk, then Tor_1's verdicts
        (two_supports_inclusion, 0, [(2, [3, 2]), (4, [3, 2])]),
    ]:
        small, big = inclusion()
        monkeypatch.setattr(betti, "_CACHE_ENTRIES", entries)
        betti._CACHES.clear()
        groups.clear()
        want = tor_vanishing(small, big, char)
        assert want == tor_vanishing_by_strands(small, big, char)
        assert all(entry in groups for entry in several)
        full = set(betti._CACHES[char])
        assert any(len(key) == 4 for key in full) and any(len(key) == 2 for key in full)
        for bound in range(1, len(full) + 1):
            monkeypatch.setattr(betti, "_CACHE_ENTRIES", bound)
            betti._CACHES.clear()
            assert tor_vanishing(small, big, char) == want
            assert len(betti._CACHES[char]) <= bound
        assert set(betti._CACHES[char]) == full
        assert all(sizes == sorted(set(sizes), reverse=True) for _, sizes in groups)


def test_tor_vanishing_obeys_the_lattice_cap(ring_xy):
    # the lattice engine walks small's lcm lattice: the lattice cap bounds it
    small = ideal_of(ring_xy, "x^2", "x*y", "y^2")
    big = maxideal_power(ring_xy, None, 1)
    with pytest.raises(CapError, match=r"over cap lattice=2 \(set FIBERLAB_CAPS=lattice=<value>\)"):
        tor_vanishing(small, big, 0, Caps(lattice=2))


def _blocks_product(n: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """(x1..xn) * (y1..yn) inside (x1..xn): a product over two disjoint blocks."""
    ring = Ring("R", tuple(f"{v}{k}" for v in "xy" for k in range(1, n + 1)))
    unit = [tuple(int(j == k) for j in range(2 * n)) for k in range(2 * n)]
    small = MonomialIdeal.from_exponents(
        ring, [tuple(map(sum, zip(unit[a], unit[n + b]))) for a in range(n) for b in range(n)])
    return small, MonomialIdeal.from_exponents(ring, unit[:n])


def test_tor_vanishing_holds_a_product_to_the_walks_limits():
    # a small ideal that splits over disjoint blocks gets its points convolved from
    # the factors' tables, unwalked; they obey the walk's limits all the same, and
    # a Betti table's points the lattice cap
    small, big = _blocks_product(3)
    assert tor_vanishing(small, big, 0) == tor_vanishing_by_strands(small, big, 0) == (True, None)
    with pytest.raises(CapError, match=r"a product over disjoint variable blocks has 49 Betti "
                                       r"points, over cap lattice=48 \(set FIBERLAB_CAPS"):
        tor_vanishing(small, big, 0, Caps(lattice=48))
    with pytest.raises(CapError, match=r"a product over disjoint variable blocks has 49 Betti "
                                       r"points, over cap lattice=48 \(set FIBERLAB_CAPS"):
        betti_table(small, 0, Caps(lattice=48), threads=1)
    assert tor_vanishing(small, big, 0, Caps(lattice=49)) == (True, None)
    assert betti_table(small, 0, Caps(lattice=49), threads=1) == betti_table(small, 0, threads=1)
    small, big = _blocks_product(11)  # 2,047^2 points: refused before any is built
    with pytest.raises(CapError, match=r"has 4190209 Betti points, over cap lattice=2000000"):
        tor_vanishing(small, big, 0)
    # one point on 26 variables, from x1..x7 * y1..y7, x1..x7 * y8..y13, ...: its
    # tight masks would overflow the 24 bits the walk packs them in
    ring = Ring("R", tuple(f"{v}{k}" for v in "xy" for k in range(1, 14)))
    halves = [ideal_of(ring, "*".join(f"{v}{k}" for k in part)).gens[0]
              for v in "xy" for part in (range(1, 8), range(8, 14))]
    small = MonomialIdeal.from_exponents(
        ring, [tuple(map(sum, zip(a, b))) for a in halves[:2] for b in halves[2:]])
    convolved = []
    convolve = betti._convolve
    with pytest.MonkeyPatch.context() as patch:  # refused from the factors' tables alone
        patch.setattr(betti, "_convolve", lambda *a: convolved.append(a) or convolve(*a))
        with pytest.raises(CapError, match=r"a lattice point reached a support of 26 variables, "
                                           r"over the walk's fixed limit of 24 \(not a FIBERLAB_CAPS"):
            tor_vanishing(small, MonomialIdeal.from_exponents(ring, halves[:2]), 0)
    assert convolved == []
    # a table builds no complex at the convolved points, so it takes no support limit
    table = betti_table(small, 0, threads=1).multigraded()
    assert len(table) == 9 and table[(2, (1,) * 26)] == 1


def test_tor_map_refuses_a_dense_strand_over_the_limit(ring_xy, monkeypatch):
    # the fixed dense-cell limit guards tor_map's GF(p) strand matrices
    monkeypatch.setattr(linalg, "DENSE_CELL_LIMIT", 3)
    m2 = maxideal_power(ring_xy, None, 2)
    with pytest.raises(CapError, match=r"a dense GF\(p\) matrix of shape .* \(not a FIBERLAB_CAPS cap"):
        tor_map(m2, m2, 32003)


def test_tor_vanishing_is_one_function_under_every_name():
    assert koszul.tor_vanishing is betti.tor_vanishing is fiber.tor_vanishing is tor_vanishing
