"""Rings, monomials, parsing, the canonical order, and the package surface."""

import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberlab import (
    DomainError,
    GrammarError,
    Monomial,
    Ring,
    parse_monomial,
    parse_ring,
    tensor_ring,
)
from fiberlab.ideals import _canonical_rows, _minimal_rows


def test_parse_ring_eight_variables():
    ring = parse_ring("ring R = [a,b,c,d,x,y,z,t];")
    assert ring.name == "R"
    assert ring.variables == ("a", "b", "c", "d", "x", "y", "z", "t")
    assert ring.nvars == 8
    assert ring.block_names() == ("R",)


def test_parse_ring_single_variable():
    ring = parse_ring("ring S = [u];")
    assert ring.variables == ("u",)


def test_parse_ring_spacing_and_optional_semicolon():
    assert parse_ring("ring R = [x, y];").variables == ("x", "y")
    assert parse_ring(" ring R = [ x , y ] ").variables == ("x", "y")


def test_parse_ring_rejects_empty_variable_entries():
    # the ring rule of definition files: every entry between commas is a name
    for bad in ("ring R = [x,];", "ring R = [,x];", "ring R = [x,,y];", "ring R = [];",
                "ring R = [x y];", "ring R = [x];;", "ring R = [x]; # note", ""):
        with pytest.raises(GrammarError):
            parse_ring(bad)


def test_monomial_error_positions_are_offsets_into_the_text(ring_xy):
    with pytest.raises(GrammarError) as info:
        parse_monomial(ring_xy, "x^2 * q")
    assert info.value.position == 6
    with pytest.raises(GrammarError) as info:
        parse_monomial(ring_xy, "x y")
    assert info.value.position == 2


def test_parse_ring_duplicate_name_rejected():
    with pytest.raises(GrammarError):
        parse_ring("ring R = [a,a];")


def test_ring_characteristic_must_be_prime():
    with pytest.raises(DomainError):
        Ring("R", ("x",), characteristic=6)
    Ring("R", ("x",), characteristic=32003)  # fine


def test_parse_monomial_basic(ring_xy):
    assert parse_monomial(ring_xy, "x^2*y").exponents == (2, 1)
    assert parse_monomial(ring_xy, "1").exponents == (0, 0)
    assert parse_monomial(ring_xy, "1*x").exponents == (1, 0)
    assert parse_monomial(ring_xy, "x*1").exponents == (1, 0)


def test_parse_monomial_appendix_generator(appendix_ring):
    m = parse_monomial(appendix_ring, "c*d*y*z*t")
    assert m.exponents == (0, 0, 1, 1, 0, 1, 1, 1)
    assert m.total_degree == 5


def test_parse_monomial_unknown_variable(ring_xy):
    with pytest.raises(GrammarError):
        parse_monomial(ring_xy, "q^2")


def test_parse_monomial_malformed(ring_xy):
    for bad in ("x^", "x**y", "^2", "x^y", "", "x y", "x^2^3", "x*", "1^2", "2*x"):
        with pytest.raises(GrammarError):
            parse_monomial(ring_xy, bad)


def test_divides_and_lcm(ring_xy):
    u = Monomial(ring_xy, (1, 0))
    v = Monomial(ring_xy, (2, 1))
    w = Monomial(ring_xy, (2, 0))
    z = Monomial(ring_xy, (1, 3))
    assert u.divides(v)
    assert not w.divides(z)
    assert u.divides(u)
    assert Monomial(ring_xy, (2, 0)).lcm(Monomial(ring_xy, (1, 1))).exponents == (2, 1)
    one = Monomial(ring_xy, (0, 0))
    assert v.lcm(one) == v


def test_canonical_order_is_degree_then_lex(ring_xy):
    vecs = np.array([(0, 2), (2, 0), (1, 1), (1, 0)], dtype=np.int32)
    assert _canonical_rows(vecs).tolist() == [[2, 0], [1, 1], [0, 2], [1, 0]]


def test_print_round_trip(ring_xy):
    m = parse_monomial(ring_xy, "x^2*y")
    assert str(m) == "x^2*y"
    assert parse_monomial(ring_xy, str(m)) == m
    assert str(Monomial(ring_xy, (0, 0))) == "1"


def test_tensor_ring_blocks():
    R = parse_ring("ring R = [a,b];")
    S = parse_ring("ring S = [x];")
    T = tensor_ring("T", R, S)
    assert T.variables == ("a", "b", "x")
    assert [b.name for b in T.blocks] == ["R", "S"]
    assert T.block("S").start == 2
    with pytest.raises(GrammarError):
        tensor_ring("U", R, parse_ring("ring Q = [b];"))  # variable clash


def test_all_lists_exactly_the_public_names():
    # every listed name resolves, so no deleted name can stay listed, and
    # nothing public is left out; submodules are not part of the surface
    import fiberlab

    public = {
        name for name, value in vars(fiberlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fiberlab.__all__) == len(set(fiberlab.__all__))
    for name in fiberlab.__all__:
        assert not isinstance(getattr(fiberlab, name), types.ModuleType), name
    assert set(fiberlab.__all__) == public


small_exps = st.tuples(*[st.integers(0, 4)] * 3)


@given(small_exps, small_exps)
def test_divides_antisymmetry(a, b):
    ring = Ring("R", ("x", "y", "z"))
    u, v = Monomial(ring, a), Monomial(ring, b)
    if u.divides(v) and v.divides(u):
        assert u == v


@given(small_exps, small_exps, small_exps)
def test_divides_transitive_and_lcm_laws(a, b, c):
    ring = Ring("R", ("x", "y", "z"))
    u, v, w = Monomial(ring, a), Monomial(ring, b), Monomial(ring, c)
    if u.divides(v) and v.divides(w):
        assert u.divides(w)
    assert u.lcm(v) == v.lcm(u)
    assert u.lcm(u) == u
    assert u.lcm(v).lcm(w) == u.lcm(v.lcm(w))
    assert u.divides(u.lcm(v))


@st.composite
def distinct_rows(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), unique=True, max_size=12))
    return np.array(rows, dtype=np.int32).reshape(len(rows), n)


@given(distinct_rows())
def test_sort_key_orders_by_degree_first(arr):
    # both orderings of ideal rows match Python's sort by (degree, lex), descending,
    # and _minimal_rows keeps exactly the rows that no other row divides
    rows = [tuple(r) for r in arr.tolist()]
    want = sorted(rows, key=lambda row: (sum(row), row), reverse=True)
    assert [tuple(r) for r in _canonical_rows(arr).tolist()] == want
    minimal = [r for r in want
               if not any(s != r and all(a <= b for a, b in zip(s, r)) for s in rows)]
    assert [tuple(r) for r in _minimal_rows(arr).tolist()] == minimal
