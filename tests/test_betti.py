"""The lattice Betti engine against independent oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlab.betti as betti_mod
from fiberlab import (
    DomainError,
    MonomialIdeal,
    Ring,
    betti_table,
    lcm_lattice,
    maxideal_power,
    tor_dimensions,
    upper_koszul,
)
from fiberlab.errors import CapError
from fiberlab.config import Caps

from conftest import ideal_of, random_ideal, reduced_homology_dims


def test_koszul_baseline(ring_xyz):
    mm = maxideal_power(ring_xyz, None, 1)
    table = betti_table(mm, 0, threads=1)
    assert table.coarse() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert table.regularity() == 1


def test_taylor_example(ring_xy):
    ideal = ideal_of(ring_xy, "x^2", "x*y")
    table = betti_table(ideal, 0, threads=1)
    assert table.multigraded() == {(0, (2, 0)): 1, (0, (1, 1)): 1, (1, (2, 1)): 1}


def test_square_generators_table():
    ring = Ring("Q", ("a", "b", "c", "d"))
    H = ideal_of(ring, "a^2", "b^2", "c^2", "d^2")
    table = betti_table(H, 0, threads=1)
    assert table.coarse() == {(0, 2): 4, (1, 4): 6, (2, 6): 4, (3, 8): 1}
    assert table.regularity() == 5
    assert table.max_index() == 3


def test_lattice_examples(ring_xy):
    assert set(lcm_lattice(ideal_of(ring_xy, "x", "y")).points) == {
        (1, 0), (0, 1), (1, 1)
    }
    pts = set(lcm_lattice(maxideal_power(ring_xy, None, 2)).points)
    assert pts == {(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}


def test_lattice_properties_random():
    rng = random.Random(13)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(15):
        ideal = random_ideal(rng, ring, max_gens=5, max_deg=3)
        if ideal.is_zero():
            continue
        points = set(lcm_lattice(ideal).points)
        assert len(points) >= len(ideal.gens)
        assert set(ideal.gens) <= points
        for a, b in itertools.combinations(points, 2):
            join = tuple(max(x, y) for x, y in zip(a, b))
            assert join in points


def test_lattice_packed_into_several_words():
    # 12 variables with exponents up to 20 need 72 packed bits: two words
    rng = random.Random(7)
    ring = Ring("R", tuple(f"v{i}" for i in range(12)))
    gens = [tuple(rng.choice((0, 0, 1, 20)) for _ in range(12)) for _ in range(6)]
    # v0^20 and v1^20 join to a point where v0*v1 is strictly below: pruned
    gens += [(20,) + (0,) * 11, (0, 20) + (0,) * 10, (1, 1) + (0,) * 10]
    ideal = MonomialIdeal.from_exponents(ring, [g for g in gens if any(g)])
    assert betti_mod._Packing(ideal.array().max(axis=0)).nwords == 2
    expected = set(ideal.gens)
    while True:
        joins = {tuple(map(max, a, b)) for a in expected for b in ideal.gens}
        if joins <= expected:
            break
        expected |= joins
    points = betti_mod._closure(ideal.array(), 10_000)
    assert sorted(map(tuple, points.tolist())) == sorted(expected)
    flagged = betti_mod._contractible(points, ideal.array())
    assert 0 < flagged.sum() < len(points)
    for b, pruned in zip(points.tolist(), flagged):
        lowered = [e - (e > 0) for e in b]
        assert pruned == any(all(g <= e for g, e in zip(gen, lowered)) for gen in ideal.gens)


def test_lattice_cap(ring_xy):
    with pytest.raises(CapError):
        lcm_lattice(maxideal_power(ring_xy, None, 4), Caps(lattice=3))
    # the cap bounds the lattice's size exactly
    size = len(lcm_lattice(maxideal_power(ring_xy, None, 4)).points)
    lcm_lattice(maxideal_power(ring_xy, None, 4), Caps(lattice=size))
    with pytest.raises(CapError):
        lcm_lattice(maxideal_power(ring_xy, None, 4), Caps(lattice=size - 1))
    with pytest.raises(DomainError):
        lcm_lattice(MonomialIdeal.zero(ring_xy))


def test_upper_koszul_examples(ring_xy):
    ideal = ideal_of(ring_xy, "x", "y")
    cx = upper_koszul(ideal, (1, 1))
    assert set(cx.face_sets()) == {(), ("x",), ("y",)}  # a 0-sphere
    gen_point = upper_koszul(ideal_of(ring_xy, "x^2", "x*y"), (2, 0))
    assert gen_point.face_sets() == ((),)
    void = upper_koszul(ideal_of(ring_xy, "x^2"), (0, 1))
    assert void.faces == ()


def test_table_matches_independent_homology_oracle():
    # every multigraded entry equals the reduced homology of the upper
    # Koszul complex computed by the standalone Fraction oracle, and
    # lattice points without entries have no homology
    rng = random.Random(99)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(10):
        ideal = random_ideal(rng, ring, max_gens=4, max_deg=3)
        if ideal.is_zero():
            continue
        table = betti_table(ideal, 0, threads=1).multigraded()
        for point in lcm_lattice(ideal).points:
            cx = upper_koszul(ideal, point)
            faces = [
                frozenset(v for j, v in enumerate(cx.vertices) if mask >> j & 1)
                for mask in cx.faces
            ]
            dims = reduced_homology_dims(faces)
            for i, d in dims.items():
                assert table.get((i, point)) == d
            for i in range(4):
                if (i, point) in table:
                    assert dims.get(i) == table[(i, point)]


def test_vanishing_outside_lattice():
    rng = random.Random(17)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(8):
        ideal = random_ideal(rng, ring, max_gens=4, max_deg=3)
        if ideal.is_zero():
            continue
        points = set(lcm_lattice(ideal).points)
        for _ in range(10):
            b = tuple(rng.randint(0, 4) for _ in range(3))
            if b in points:
                continue
            cx = upper_koszul(ideal, b)
            faces = [
                frozenset(v for j, v in enumerate(cx.vertices) if mask >> j & 1)
                for mask in cx.faces
            ]
            assert reduced_homology_dims(faces) == {}


def test_euler_characteristic_consistency():
    # alternating sum of multigraded Betti numbers at b equals the
    # inclusion-exclusion coefficient of b over generator subsets
    rng = random.Random(31)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(10):
        ideal = random_ideal(rng, ring, max_gens=4, max_deg=3)
        if ideal.is_zero():
            continue
        table = betti_table(ideal, 0, threads=1).multigraded()
        coeff: dict[tuple, int] = {}
        gens = ideal.gens
        for r in range(1, len(gens) + 1):
            for subset in itertools.combinations(gens, r):
                join = tuple(max(col) for col in zip(*subset))
                coeff[join] = coeff.get(join, 0) + (-1) ** (r + 1)
        alternating: dict[tuple, int] = {}
        for (i, b), d in table.items():
            alternating[b] = alternating.get(b, 0) + (-1) ** i * d
        alternating = {b: v for b, v in alternating.items() if v}
        coeff = {b: v for b, v in coeff.items() if v}
        assert alternating == coeff


def test_product_split_equals_direct():
    ring = Ring("R", ("a", "b", "x", "y"))
    ab2 = ideal_of(ring, "a", "b") ** 2
    xy3 = ideal_of(ring, "x", "y") ** 3
    prod = ab2 * xy3
    factored = betti_table(prod, 0, threads=1)
    original = betti_mod._product_split
    betti_mod._product_split = lambda gens: None
    try:
        direct = betti_table(prod, 0, threads=1)
    finally:
        betti_mod._product_split = original
    assert factored.entries == direct.entries


def test_characteristic_dependence_detected():
    # the canonical char-2 example: a 6-vertex triangulation of the real
    # projective plane (closed surface, all 15 edges used twice, Euler
    # characteristic 1), via its Stanley-Reisner ideal of non-triangles
    ring = Ring("P", tuple(f"v{i}" for i in range(1, 7)))
    triangles = {
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    }
    from collections import Counter

    edge_use = Counter(
        e for t in triangles for e in itertools.combinations(sorted(t), 2)
    )
    assert len(edge_use) == 15 and all(v == 2 for v in edge_use.values())
    gens = []
    for c in itertools.combinations(range(1, 7), 3):
        if c not in triangles:
            vec = [0] * 6
            for v in c:
                vec[v - 1] = 1
            gens.append(tuple(vec))
    stanley_reisner = MonomialIdeal.from_exponents(ring, gens)
    t0 = betti_table(stanley_reisner, 0, threads=1).coarse()
    t2 = betti_table(stanley_reisner, 2, threads=1).coarse()
    assert t0 != t2  # torsion shows up exactly in characteristic 2
    t32003 = betti_table(stanley_reisner, 32003, threads=1).coarse()
    assert t0 == t32003


def test_zero_ideal_rejected(ring_xy):
    with pytest.raises(DomainError):
        betti_table(MonomialIdeal.zero(ring_xy), 0)


def test_characteristic_bound_rejects_overflowing_or_composite_fields(ring_xyz):
    # GF(p) ranks multiply residues in int64: p = 4294967311 overflows and
    # gave beta_(1,3) = -1 for (x, y, z), as did the non-prime override 4
    mm = maxideal_power(ring_xyz, None, 1)
    for p in (4294967311, 4):
        with pytest.raises(DomainError):
            Ring("R", ("x", "y", "z"), characteristic=p)
        with pytest.raises(DomainError):
            betti_table(mm, p, threads=1)
        with pytest.raises(DomainError):
            tor_dimensions(mm, p)
    table = betti_table(mm, 32003, threads=1)
    assert table.coarse() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}


def test_unit_ideal_table(ring_xy):
    table = betti_table(MonomialIdeal.unit(ring_xy), 0, threads=1)
    assert table.multigraded() == {(0, (0, 0)): 1}


def test_parallel_merge_deterministic():
    ring = Ring("R", ("a", "b", "c", "d"))
    ideal = maxideal_power(ring, None, 2) * ideal_of(ring, "a^2", "b^2", "c^2", "d^2")
    serial = betti_table(ideal, 32003, threads=1)
    original = betti_mod._PARALLEL_MIN_POINTS
    betti_mod._PARALLEL_MIN_POINTS = 10
    try:
        parallel = betti_table(ideal, 32003, threads=2)
    finally:
        betti_mod._PARALLEL_MIN_POINTS = original
    assert serial.entries == parallel.entries


def test_json_shape(ring_xyz):
    table = betti_table(maxideal_power(ring_xyz, None, 1), 0, threads=1)
    payload = table.to_json_dict()
    assert payload["char"] == 0
    assert {"i": 0, "j": 1, "dim": 3} in payload["entries"]
    assert {"i": 1, "b": [1, 1, 0], "dim": 1} in payload["multigraded"]


def test_contractible_points_are_pruned(ring_xy):
    # at (2, 2) the divisor x*y has 1 < 2 in both variables: the upper Koszul
    # complex is the full simplex on {x, y}, with no homology
    ideal = ideal_of(ring_xy, "x^2", "x*y", "y^2")
    gens = ideal.array()
    points = betti_mod._closure(gens, 100)
    flagged = {tuple(int(e) for e in b)
               for b in points[betti_mod._contractible(points, gens)]}
    assert flagged == {(2, 2)}
    assert len(upper_koszul(ideal, (2, 2)).faces) == 4
    assert not any(b == (2, 2) for _, b in betti_table(ideal, 0, threads=1).multigraded())
    # the point 0 of the unit ideal carries beta_0 and is never pruned
    unit = MonomialIdeal.unit(ring_xy).array()
    assert not betti_mod._contractible(unit, unit).any()


def test_masks_with_one_minimal_antichain_share_a_cache_key():
    # at (2,1,2) the divisors x^2, x*y give tight masks {x}, {y}; at (2,1,1)
    # y*z adds {y,z}, which contains {y}: both complexes are the same
    gens = np.array([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)], dtype=np.int32)
    raw_a = np.array([0b001, 0b010], dtype=np.int64)
    raw_b = np.array([0b110, 0b010, 0b001, 0b010], dtype=np.int64)
    assert betti_mod._minimal_masks(raw_a).tobytes() == betti_mod._minimal_masks(raw_b).tobytes()
    cache: dict = {}
    points = np.array([(2, 1, 2), (2, 1, 1)], dtype=np.int32)
    betti_mod._points_betti(points, gens, 0, cache)
    assert list(cache) == [(3, betti_mod._minimal_masks(raw_a).tobytes())]


def test_minimal_masks_keep_the_faces():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        raw = rng.integers(1, 1 << m, size=int(rng.integers(1, 12))).astype(np.int64)
        minimal = betti_mod._minimal_masks(raw)
        assert set(minimal.tolist()) <= set(raw.tolist())
        assert not any(a != b and a & b == a for a in minimal for b in minimal)
        assert (betti_mod._faces(raw, m) == betti_mod._faces(minimal, m)).all()
        for char in (0, 32003):
            assert (betti_mod._homology_from_masks(raw, m, char)
                    == betti_mod._homology_from_masks(minimal, m, char))


def test_face_indicator_equals_broadcast_formula():
    # the face set once came from a 2^m x |masks| table; the one-array
    # downward closure must give the same faces
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        raw = rng.integers(0, 1 << m, size=int(rng.integers(1, 10))).astype(np.int64)
        for masks in (raw, betti_mod._minimal_masks(raw)):
            idx = np.arange(1 << m, dtype=np.int64)
            expected = ((idx[:, None] & masks[None, :]) == 0).any(axis=1)
            assert (betti_mod._faces(masks, m) == expected).all()


small_ideals = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=5
    ).map(lambda gens: MonomialIdeal.from_exponents(
        Ring("R", tuple("xyzw"[:n])), gens))
)


@settings(max_examples=40, deadline=None)
@given(small_ideals)
def test_walk_matches_koszul_engine(ideal):
    for char in (0, 32003):
        assert betti_table(ideal, char, threads=1).coarse() == tor_dimensions(ideal, char).table()


@settings(max_examples=15, deadline=None)
@given(small_ideals)
def test_parallel_walk_matches_koszul_engine(ideal):
    with pytest.MonkeyPatch.context() as patch:  # every lattice goes to the pool
        patch.setattr(betti_mod, "_PARALLEL_MIN_POINTS", 1)
        for char in (0, 32003):
            table = betti_table(ideal, char, threads=2)
            assert table.coarse() == tor_dimensions(ideal, char).table()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6), min_size=1, max_size=7
    ).map(lambda gens: MonomialIdeal.from_exponents(
        Ring("R", tuple("xyzuv"[:n])), [tuple(g.count(v) for v in range(n)) for g in gens]))
))
def test_tables_agree_over_q_and_gf_p_in_five_variables(ideal):
    # every upper Koszul complex has at most 5 vertices, and torsion in
    # simplicial homology needs at least 6, so the field cannot matter
    q = betti_table(ideal, 0, threads=1)
    p = betti_table(ideal, 32003, threads=1)
    assert q.multigraded() == p.multigraded()
