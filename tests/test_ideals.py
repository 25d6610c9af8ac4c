"""Minimal generating sets and the ideal algebra."""

import itertools
import random
from operator import lshift

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberlab.ideals as ideals_mod
from fiberlab import koszul
from fiberlab import (
    DomainError,
    Monomial,
    MonomialIdeal,
    Ring,
    betti_table,
    component_ideal,
    finite_length_reg,
    maxideal_power,
    parse_monomial,
    star_derivative,
    tensor_embed,
    tensor_ring,
    tor_vanishing,
)
from fiberlab.errors import CapError, RingMismatchError
from fiberlab.ideals import EXPONENT_LIMIT, monomials_of_degree

from conftest import all_monomials, ideal_of, random_ideal


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.booleans(), st.integers(0, 6))
def test_principal_powers_equal_repeated_products(exps, zero, s):
    ring = Ring("R", tuple("xyz"[: len(exps)]))
    ideal = MonomialIdeal.zero(ring) if zero else MonomialIdeal.from_exponents(ring, [exps])
    product = MonomialIdeal.unit(ring)
    for _ in range(s):
        product = product * ideal
    with pytest.MonkeyPatch.context() as patch:  # one step, not s products
        patch.setattr(MonomialIdeal, "__mul__", lambda *args: pytest.fail("multiplied"))
        assert ideal ** s == product


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
    m2 = maxideal_power(ring_xy, None, 2)
    for pairs in DIVISIBLE_BRANCHES.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals_mod, "_SMALL_DIVISIBLE_PAIRS", pairs)
            assert x2.contains(MonomialIdeal.zero(ring_xy))
            assert not MonomialIdeal.zero(ring_xy).contains(x2)
            assert m2.contains(x2) and m2.contains(m2) and not x2.contains(m2)
            assert ideal_of(ring_xy, "x").contains(ideal_of(ring_xy, "x^2", "x*y^5"))
            assert not ideal_of(ring_xy, "x*y").contains(ideal_of(ring_xy, "x^2*y", "y^3"))


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


def test_component_ideal_examples(ring_xy, monkeypatch):
    a = ideal_of(ring_xy, "x^2", "y^3")
    assert component_ideal(a, 2) == ideal_of(ring_xy, "x^2")
    assert component_ideal(a, 3) == ideal_of(ring_xy, "x^3", "x^2*y", "y^3")
    m2 = maxideal_power(ring_xy, None, 2)
    assert component_ideal(m2, 2) == m2
    # no degree cap: every degree-100 monomial is a multiple of x^2 or y^3
    assert component_ideal(a, 100) == maxideal_power(ring_xy, None, 100)
    # the fixed limit on the generators enumerated, 99 + 98 of them here, is the only bound
    monkeypatch.setattr(ideals_mod, "COMPONENT_LIMIT", 196)
    with pytest.raises(CapError, match=r"^component degree 100 would enumerate 197 generators, "
                                       r"over the fixed limit of 196 \(not a FIBERLAB_CAPS cap; "
                                       r"it cannot be raised\)$"):
        component_ideal(a, 100)


@pytest.mark.parametrize("nvars", [1, 2])
def test_component_ideal_past_degree_64_matches_brute_force(nvars):
    # the degrees past the degree cap of 64 that component ideals had, against every
    # monomial of the degree that a generator divides
    ring = Ring("R", ("x", "y")[:nvars])
    rng = random.Random(nvars)
    for d in range(65, 81):
        ideal = random_ideal(rng, ring, max_gens=4, min_deg=40, max_deg=85)
        brute = [m for m in all_monomials(nvars, d)
                 if any(all(g[v] <= m[v] for v in range(nvars)) for g in ideal.gens)]
        assert component_ideal(ideal, d) == MonomialIdeal.from_exponents(ring, brute), (ideal, d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 10),
    st.none() | st.permutations(range(n)).flatmap(
        lambda order: st.integers(0, n).map(lambda k: tuple(order[:k]))))))
def test_monomials_of_degree_match_combinations_with_replacement(case):
    # the yield order is part of the contract: random draws from it pick the
    # benchmark's and the acceptance criteria's ideals
    n, d, indices = case
    ring = Ring("R", tuple(f"x{v}" for v in range(n)))
    assert list(monomials_of_degree(ring, d, indices)) == list(all_monomials(n, d, indices))


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


# -- the packed exponent-row kernel against Python sets ---------------------

# 12 variables with exponents up to 20 need 72 packed bits: two words
_TWO_WORDS = (12, [(20,) * 6 + (0,) * 6, (0,) * 6 + (1,) * 6, (0,) * 12],
              [(20,) * 12, (19,) * 12, (20,) * 6 + (0,) * 6, (0,) * 11 + (1,), (20,) * 12])


@st.composite
def exponent_rows(draw):
    """A ring size and two lists of exponent rows: generators, and rows to test."""
    nvars = draw(st.sampled_from((1, 3, 12)))
    top = draw(st.sampled_from((1, 3, 20)))
    zero = draw(st.sets(st.integers(0, nvars - 1)))  # columns that stay all-zero
    row = st.tuples(*(st.just(0) if c in zero else st.integers(0, top) for c in range(nvars)))
    rows = st.lists(st.one_of(row, st.just((0,) * nvars)), max_size=10)  # with the unit row
    return nvars, draw(rows), draw(rows)


@settings(max_examples=150, deadline=None)
@given(exponent_rows())
@example(_TWO_WORDS)
@example((3, [], []))
@example((3, [], [(1, 0, 2)]))
@example((3, [(0, 0, 0)], []))
def test_row_kernel_matches_python_sets(data):
    nvars, gens, rows = data
    G, X = ideals_mod._as_array(gens, nvars), ideals_mod._as_array(rows, nvars)
    divides = lambda g, r: all(a <= b for a, b in zip(g, r))  # noqa: E731
    unique = ideals_mod._unique_rows(X).tolist()
    assert sorted(map(tuple, unique)) == sorted(set(rows))
    assert ideals_mod._divisible(G, X).tolist() == [any(divides(g, r) for g in gens)
                                                   for r in rows]
    minimal = {r for r in rows if not any(divides(g, r) for g in set(rows) - {r})}
    assert sorted(map(tuple, ideals_mod._minimal_rows(X).tolist())) == sorted(minimal)
    ring = Ring("R", tuple(f"v{i}" for i in range(nvars)))
    big, small = (MonomialIdeal.from_exponents(ring, v) for v in (gens, rows))
    assert big.contains(small) == all(any(divides(g, r) for g in gens) for r in rows)


# values of _SMALL_MINIMAL_ROWS that force each branch of _minimal_rows: 0 takes the
# array branch on every input, and 1 << 62 the Python-int branch on every input
ROW_BRANCHES = {"arrays": 0, "ints": 1 << 62}
# values of _SMALL_DIVISIBLE_PAIRS that force each branch of _divisible, as above
DIVISIBLE_BRANCHES = {"arrays": 0, "ints": 1 << 62}


def _in_each_branch(fn, *args):
    """``fn(*args)`` under each branch of ``_minimal_rows``, keyed by branch."""
    out = {}
    for branch, rows in ROW_BRANCHES.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals_mod, "_SMALL_MINIMAL_ROWS", rows)
            out[branch] = fn(*args)
    return out


def _divides(g, r) -> bool:
    return all(a <= b for a, b in zip(g, r))


def _canonical(rows) -> list:
    return sorted(set(rows), key=lambda row: (sum(row), row), reverse=True)


@st.composite
def layered_rows(draw):
    """Up to about 60 rows over many degrees: a few base rows, and multiples of them.

    The base rows have degrees spread over the whole range, so minimal rows
    lie in several degrees and a multiple of one can be divided by another.
    12 variables with exponents up to 60 mostly pack into two words.
    """
    nvars, top = draw(st.sampled_from(((2, 3), (5, 7), (12, 3), (12, 60))))
    base = draw(st.lists(st.tuples(*[st.integers(0, top)] * nvars), min_size=1, max_size=12))
    bumps = st.tuples(st.integers(0, len(base) - 1), st.tuples(*[st.integers(0, 3)] * nvars))
    rows = base + [tuple(a + b for a, b in zip(base[i], bump))
                   for i, bump in draw(st.lists(bumps, min_size=8, max_size=48))]
    return nvars, draw(st.permutations(rows))


# two packed words, and minimal rows in degrees 1 and 114: two rounds
_LAYERED = (12, [(20,) * 12, (0,) * 11 + (1,), (19,) * 6 + (0,) * 6, (3,) * 12])


@settings(max_examples=120, deadline=None)
@given(layered_rows(), st.sampled_from([1, None]))  # 1: one row a divisibility chunk
@example(_LAYERED, 1)
def test_minimal_rows_match_brute_force(data, cells):
    nvars, rows = data
    arr = ideals_mod._as_array(rows, nvars)
    want = _canonical(r for r in rows if not any(_divides(s, r) for s in set(rows) - {r}))
    for rows_cap in ROW_BRANCHES.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals_mod, "_SMALL_MINIMAL_ROWS", rows_cap)
            if cells is not None:
                patch.setattr(ideals_mod, "_DIVISIBLE_CELLS", cells)
            got = ideals_mod._minimal_rows(arr)
        assert got.dtype == np.int32
        assert [tuple(r) for r in got.tolist()] == want


@st.composite
def ideal_pairs(draw):
    """Generators of two ideals, some of each side drawn inside the other on purpose.

    Each side is "none", "some" or "all": how many of its generators are a
    generator of the other side's own rows times a monomial.  An empty
    side is the zero ideal; the zero row, the unit ideal, can be drawn.
    """
    nvars = draw(st.integers(1, 4))
    row = st.one_of(st.tuples(*[st.integers(0, 4)] * nvars), st.just((0,) * nvars))
    own = [draw(st.lists(row, max_size=6)) for _ in range(2)]
    sides = []
    for mine, theirs in ((own[0], own[1]), (own[1], own[0])):
        share = draw(st.sampled_from(("none", "some", "all")))
        inside = []
        if theirs and share != "none":
            picks = st.tuples(st.sampled_from(theirs), st.tuples(*[st.integers(0, 2)] * nvars))
            inside = [tuple(a + b for a, b in zip(g, bump))
                      for g, bump in draw(st.lists(picks, min_size=1, max_size=5))]
        sides.append(inside if share == "all" and inside else mine + inside)
    return nvars, sides[0], sides[1]


@settings(max_examples=150, deadline=None)
@given(ideal_pairs())
@example((2, [], [(1, 0)]))  # the zero ideal
@example((2, [(0, 0)], [(1, 2), (3, 0)]))  # the unit ideal
@example((2, [(1, 1), (2, 0)], [(1, 0)]))  # all of A lies in B
@example((3, [(1, 0, 0), (0, 1, 1)], [(1, 1, 0), (0, 2, 1), (0, 0, 3)]))  # all of B in A
def test_intersect_matches_brute_force_lcm_pairs(data):
    nvars, a, b = data
    ring = Ring("R", tuple(f"v{i}" for i in range(nvars)))
    for rows_cap, pairs in itertools.product(ROW_BRANCHES.values(), DIVISIBLE_BRANCHES.values()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals_mod, "_SMALL_MINIMAL_ROWS", rows_cap)
            patch.setattr(ideals_mod, "_SMALL_DIVISIBLE_PAIRS", pairs)
            A, B = (MonomialIdeal.from_exponents(ring, gens) for gens in (a, b))
            joins = {tuple(map(max, g, h)) for g in A.gens for h in B.gens}
            want = _canonical(j for j in joins if not any(_divides(k, j) for k in joins - {j}))
            assert list((A & B).gens) == want
            assert list((B & A).gens) == want


@st.composite
def divisibility_inputs(draw):
    """Two row sets on 1-6 columns for ``_divisible``: either may be empty, and rows of the
    tested side are drawn equal to generators or as their multiples on purpose.  Exponents
    up to 1, 20, 2^16 or ``EXPONENT_LIMIT``, so the array branch packs one word or several."""
    ncols = draw(st.integers(1, 6))
    top = draw(st.sampled_from((1, 20, 1 << 16, EXPONENT_LIMIT)))
    row = st.tuples(*[st.integers(0, top)] * ncols)
    gens = draw(st.lists(row, max_size=8))
    rows = draw(st.lists(row, max_size=8))
    if gens:
        bump = st.tuples(*[st.integers(0, 2)] * ncols)
        picks = draw(st.lists(st.tuples(st.sampled_from(gens), bump), max_size=6))
        rows += [tuple(min(g + e, top) for g, e in zip(gen, up)) for gen, up in picks]
    return ncols, gens, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(divisibility_inputs())
@example((3, [], [(1, 2, 3)]))  # no generator
@example((3, [(1, 2, 3)], []))  # no row
@example((2, [(EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT)], [(EXPONENT_LIMIT,) * 2, (5, 5)]))
def test_divisible_branches_give_equal_answers(data):
    ncols, gens, rows = data
    want = [any(_divides(g, r) for g in gens) for r in rows]
    arrays = [ideals_mod._as_array(side, ncols) for side in (gens, rows)]
    for pairs in DIVISIBLE_BRANCHES.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideals_mod, "_SMALL_DIVISIBLE_PAIRS", pairs)
            got = ideals_mod._divisible(*arrays)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == want


@st.composite
def one_word_layouts(draw):
    """Column maxima whose fields of 0-31 bits, guards included, fit into one int64 word,
    and 2-8 rows under them.  A maximum of 0 is a column with no field."""
    maxima, used = [], 0
    for width in draw(st.lists(st.integers(0, 31), min_size=1, max_size=10)):
        if width and used + width + 1 > 63:
            break
        maxima.append(draw(st.integers(1 << width >> 1, (1 << width) - 1)))
        used += width + 1 if width else 0
    row = st.tuples(*[st.integers(0, top) for top in maxima])
    return maxima, draw(st.lists(row, min_size=2, max_size=8))


@settings(max_examples=150, deadline=None)
@given(one_word_layouts())
@example(([0, EXPONENT_LIMIT, 0, 1, (1 << 28) - 1],  # 32 + 2 + 29 bits: the whole word
          [(0, EXPONENT_LIMIT, 0, 1, 0), (0, 5, 0, 0, (1 << 28) - 1), (0, 0, 0, 0, 0)]))
def test_int_layout_is_the_one_word_packing(data):
    # the small closure and the small walk take their keys' order, and their joins and
    # divisibility tests, from this equality
    maxima, rows = data
    layout, packing = ideals_mod._IntLayout(maxima), ideals_mod._Packing(np.array(maxima))
    assert packing.nwords == 1
    assert (layout.guard, layout.low) == (int(packing.guard[0]), int(packing.low[0]))
    words = packing.pack(np.array(rows, dtype=np.int64))
    keys = [sum(map(lshift, row, layout.shifts)) for row in rows]
    assert keys == words[:, 0].tolist()
    guard = layout.guard
    for (a, ka, wa), (b, kb, wb) in itertools.product(zip(rows, keys, words), repeat=2):
        assert ((ka - kb) & guard == 0) == _divides(b, a)
        ge = ((ka | guard) - kb) & guard
        spread = 0  # as _Packing.join spreads the guard bits ge
        for width, guards in packing.by_width:
            bits = ge & int(guards[0])
            spread |= bits - (bits >> width)
        assert layout[ge] == spread
        assert kb + (((ka | guard) - kb) & layout[ge]) == int(packing.join(wa, wb)[0])
        assert packing.unpack(packing.join(wa, wb)[None]).tolist() == [list(map(max, a, b))]


def test_array_is_built_once_read_only_and_left_as_it_is(ring_xyz):
    ideal = ideal_of(ring_xyz, "x^2", "x*y", "y*z^2", "z^3")
    gens, array = ideal.gens, ideal.array()
    assert ideal.array() is array
    with pytest.raises(ValueError):
        array[0, 0] = 7
    m = maxideal_power(ring_xyz, None, 1)
    small = m * ideal
    # every in-library caller of array(): arithmetic, degree data, Betti tables,
    # Tor maps and the finite-length regularity, which saturates a copy
    ideal + m, ideal * m, ideal & m, ideal.colon(m), ideal.support(), ideal.contains(small)
    assert finite_length_reg(ideal, small) == 3
    betti_table(ideal, 32003, threads=1)
    tor_vanishing(small, ideal, 32003)
    koszul.max_lattice_degree(ideal)
    koszul.tor_map(small, ideal, 32003)
    for which in (ideal, small):
        assert which.array().tolist() == [list(g) for g in which.gens]
    assert ideal.gens == gens and ideal.array() is array


def test_row_kernel_example_spans_two_words():
    nvars, gens, rows = _TWO_WORDS
    top = ideals_mod._as_array(gens + rows, nvars).max(axis=0)
    assert ideals_mod._Packing(top).nwords == 2
    nvars, rows = _LAYERED
    layered = ideals_mod._as_array(rows, nvars)
    assert ideals_mod._Packing(layered.max(axis=0)).nwords == 2
    for got in _in_each_branch(ideals_mod._minimal_rows, layered).values():
        assert {sum(r) for r in got.tolist()} == {1, 114}


@st.composite
def wide_rows(draw):
    """Up to 80 rows of 1-6 columns, each column's exponents up to 1, 20, 2^16 or
    EXPONENT_LIMIT, so the packing takes one word or several; a row is drawn as a
    multiple of an earlier one, or repeated, now and then."""
    tops = draw(st.lists(st.sampled_from([1, 20, 1 << 16, EXPONENT_LIMIT]), min_size=1, max_size=6))
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(2, 80))):
        fresh = tuple(draw(st.integers(0, top)) for top in tops)
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            fresh = tuple(min(b + draw(st.integers(0, 2)), top) for b, top in zip(base, tops))
        rows.append(fresh)
    return len(tops), rows


@settings(max_examples=120, deadline=None)
@given(wide_rows())
@example((3, [(EXPONENT_LIMIT, 0, 0), (0, EXPONENT_LIMIT, 0), (0, 0, EXPONENT_LIMIT)] * 2))
@example((2, [(0, 0), (0, 0), (3, 1)]))  # the unit row, twice
def test_minimal_rows_branches_give_equal_arrays(data):
    nvars, rows = data
    arr = ideals_mod._as_array(rows, nvars)
    got = _in_each_branch(ideals_mod._minimal_rows, arr)
    assert got["ints"].dtype == got["arrays"].dtype == np.int32
    assert got["ints"].shape == got["arrays"].shape
    assert got["ints"].tolist() == got["arrays"].tolist()


def test_exponents_up_to_the_limit(ring_xy):
    below = MonomialIdeal.from_exponents(ring_xy, [(2**30 - 1, 0)])
    half = MonomialIdeal.from_exponents(ring_xy, [(2**30, 0)])
    assert (below * half).gens == ((EXPONENT_LIMIT, 0),)
    with pytest.raises(DomainError, match="over the fixed limit of 2\\^31 - 1"):
        half * half
    with pytest.raises(DomainError, match="exponent 3000000000 is over"):
        MonomialIdeal.from_exponents(ring_xy, [(1, 3_000_000_000)])
    # two fields of 31 bits and their guards fill two words of the lattice
    corners = MonomialIdeal.from_exponents(ring_xy, [(EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT)])
    assert betti_table(corners, 0, threads=1).multigraded() == {
        (0, (EXPONENT_LIMIT, 0)): 1, (0, (0, EXPONENT_LIMIT)): 1,
        (1, (EXPONENT_LIMIT, EXPONENT_LIMIT)): 1,
    }
    # a colon by a monomial past the limit clears that variable, as any larger power would
    wide = Monomial(ring_xy, (3_000_000_000, 1))
    assert corners.colon(wide).gens == ((0, 0),)
    assert ideal_of(ring_xy, "x^2*y^3").colon(wide).gens == ((0, 2),)
