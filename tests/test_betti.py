"""The lattice Betti engine against independent oracles."""

import itertools
import math
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
    maxideal_power,
    tor_vanishing,
)
from fiberlab.errors import CapError
from fiberlab.config import Caps

import fiberlab.linalg as linalg

from conftest import (exact_rank, ideal_of, koszul_tor, lcm_lattice, random_ideal,
                      rank_mod_p_oracle, reduced_homology_dims, upper_koszul)


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
    assert set(lcm_lattice(ideal_of(ring_xy, "x", "y"))) == {
        (1, 0), (0, 1), (1, 1)
    }
    pts = set(lcm_lattice(maxideal_power(ring_xy, None, 2)))
    assert pts == {(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}


def test_lattice_properties_random():
    rng = random.Random(13)
    ring = Ring("R", ("x", "y", "z"))
    for _ in range(15):
        ideal = random_ideal(rng, ring, max_gens=5, max_deg=3)
        if ideal.is_zero():
            continue
        points = set(lcm_lattice(ideal))
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
    size = len(lcm_lattice(maxideal_power(ring_xy, None, 4)))
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
        for point in lcm_lattice(ideal):
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
        points = set(lcm_lattice(ideal))
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
            tor_vanishing(mm, mm, p)
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
        faces_raw, faces_minimal = betti_mod._faces([raw, minimal], m)
        assert (faces_raw == faces_minimal).all()
        for char in (0, 32003):
            dims_raw, dims_minimal = betti_mod._homology_from_masks([raw, minimal], m, char)
            assert dims_raw == dims_minimal


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
            assert (betti_mod._faces([masks], m)[0] == expected).all()


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
        assert betti_table(ideal, char, threads=1).coarse() == koszul_tor(ideal, char)


@settings(max_examples=15, deadline=None)
@given(small_ideals)
def test_parallel_walk_matches_koszul_engine(ideal):
    with pytest.MonkeyPatch.context() as patch:  # every lattice goes to the pool
        patch.setattr(betti_mod, "_PARALLEL_MIN_POINTS", 1)
        for char in (0, 32003):
            table = betti_table(ideal, char, threads=2)
            assert table.coarse() == koszul_tor(ideal, char)


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


# -- batched homology against the per-complex build ---------------------------


def reference_homology(masks, m: int, char: int) -> dict[int, int]:
    """{i: dim H-tilde_(i-1)} of one complex, one boundary matrix at a time.

    The per-complex build the walk used before it batched complexes: faces
    by brute force, boundary triplets from a loop over each face's bits,
    ranks by ``rank_exact`` over Q and by textbook reduction over GF(p).
    """
    masks = [int(x) for x in masks]
    if not masks:
        return {}
    faces = [f for f in range(1 << m) if any(f & x == 0 for x in masks)]
    by_card = [[f for f in faces if bin(f).count("1") == k] for k in range(m + 1)]
    ranks = [0] * (m + 2)
    for k in range(1, m + 1):
        if not by_card[k]:
            continue
        index = {f: i for i, f in enumerate(by_card[k - 1])}
        triplets = []
        for col, face in enumerate(by_card[k]):
            sign, rest = 1, face
            while rest:
                bit = rest & -rest
                triplets.append((index[face ^ bit], col, sign))
                sign, rest = -sign, rest ^ bit
        shape = (len(by_card[k - 1]), len(by_card[k]))
        if char == 0:
            ranks[k] = exact_rank(triplets, shape)
        else:
            dense = np.zeros(shape, dtype=np.int64)
            for r, c, v in triplets:
                dense[r, c] = v
            ranks[k] = rank_mod_p_oracle(dense, char)
    dims = {i: len(by_card[i]) - ranks[i] - ranks[i + 1] for i in range(m + 1)}
    return {i: d for i, d in dims.items() if d}


mask_batches = st.integers(0, 8).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.lists(st.integers(0, (1 << m) - 1), min_size=0, max_size=6),
            min_size=1, max_size=6,
        ),
    )
)


def _covering(masks: list[int], m: int) -> list[int]:
    """Nonzero masks whose union is every vertex: neither a cone nor a full simplex."""
    masks = [x for x in masks if x] or [(1 << m) - 1]
    uncovered = ((1 << m) - 1) & ~np.bitwise_or.reduce(masks)
    return masks + [int(uncovered)] if uncovered else masks


@settings(max_examples=80, deadline=None)
@given(mask_batches, st.sampled_from([0, 2, 3, 32003]))
def test_batched_homology_matches_per_complex_build(drawn, char):
    # the batch mixes the drawn masks (often a cone or a full simplex) with
    # covering versions of them, which reach the boundary ranks unless
    # their only mask is every vertex (the complex {empty face})
    m, batch = drawn
    if m:
        batch = batch + [_covering(masks, m) for masks in batch]
    batch = [np.array(sorted(set(masks)), dtype=np.int64) for masks in batch]
    got = betti_mod._homology_from_masks(batch, m, char)
    assert got == [reference_homology(masks, m, char) for masks in batch]


def rp2_masks() -> np.ndarray:
    """The 6-vertex real projective plane: the complements of its triangles."""
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    return np.array(sorted(63 ^ sum(1 << v for v in t) for t in triangles), dtype=np.int64)


def test_rp2_homology_depends_on_the_field():
    masks = rp2_masks()
    # H-tilde_1 = H-tilde_2 = 1 over GF(2), under keys i = 2, 3; acyclic otherwise
    assert betti_mod._homology_from_masks([masks], 6, 2) == [{2: 1, 3: 1}]
    for char in (3, 32003, 0):
        assert betti_mod._homology_from_masks([masks], 6, char) == [{}]
    assert reference_homology(masks, 6, 2) == {2: 1, 3: 1}


def test_answer_does_not_depend_on_the_batch():
    # one complex alone, among others in either order, and with a cell
    # budget that puts four complexes in a face array (2^6 cells each) and
    # cuts their stacks after one to a few matrices, so the padding and the
    # neighbours in a stack differ
    rng = np.random.default_rng(3)
    batch = [rp2_masks()]
    for _ in range(40):
        raw = rng.integers(1, 1 << 6, size=int(rng.integers(1, 7))).astype(np.int64)
        batch.append(betti_mod._minimal_masks(raw))
    for char in (0, 32003, 2):
        alone = [betti_mod._homology_from_masks([masks], 6, char)[0] for masks in batch]
        assert betti_mod._homology_from_masks(batch, 6, char) == alone
        assert betti_mod._homology_from_masks(batch[::-1], 6, char) == alone[::-1]
        with pytest.MonkeyPatch.context() as patch:
            for budget in (256, 1024):
                patch.setattr(linalg, "_CELL_BUDGET", budget)
                assert betti_mod._homology_from_masks(batch, 6, char) == alone
    assert alone[0] == {2: 1, 3: 1}  # GF(2), the last field above


block_products = st.integers(2, 3).flatmap(
    lambda nblocks: st.tuples(*[
        st.integers(1, 2).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                               min_size=1, max_size=3)
        )
        for _ in range(nblocks)
    ])
)


@settings(max_examples=40, deadline=None)
@given(block_products)
def test_product_split_matches_direct_walk(blocks):
    # a product of ideals in disjoint blocks of variables: its minimal
    # generators are the products of the factors' minimal generators
    sizes = [len(gens[0]) for gens in blocks]
    ring = Ring("R", tuple(f"v{i}" for i in range(sum(sizes))))
    factors = []
    for at, gens in enumerate(blocks):
        before, after = sum(sizes[:at]), sum(sizes[at + 1 :])
        factors.append(MonomialIdeal.from_exponents(
            ring, [(0,) * before + g + (0,) * after for g in gens]))
    ideal = factors[0]
    for factor in factors[1:]:
        ideal = ideal * factor
    if all(len(f.gens) > 1 for f in factors):
        assert betti_mod._product_split(ideal.array()) is not None
    for char in (0, 32003):
        split = betti_table(ideal, char, threads=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(betti_mod, "_product_split", lambda gens: None)
            direct = betti_table(ideal, char, threads=1)
        assert split.entries == direct.entries


def test_walk_refuses_a_dense_matrix_over_the_limit_before_allocating(monkeypatch):
    # (x1^2, ..., x8^2): the point with support m carries the boundary of the
    # (m-1)-simplex, whose largest boundary matrix has C(m, m//2) * C(m, m//2 - 1)
    # cells: 3,920 at m = 8 and 1,225 at m = 7
    ring = Ring("R", tuple(f"x{i}" for i in range(1, 9)))
    ideal = MonomialIdeal.from_exponents(
        ring, [tuple(2 * (j == i) for j in range(8)) for i in range(8)])
    monkeypatch.setattr(linalg, "DENSE_CELL_LIMIT", 3919)
    stacks = []
    allocate = np.zeros

    def zeros(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3:
            stacks.append(shape)
        return allocate(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(CapError, match=r"shape \(56, 70\) reached 3920 cells, over the fixed "
                                       r"limit of 3919 \(not a FIBERLAB_CAPS cap"):
        betti_table(ideal, 32003, threads=1)
    # nothing was laid out: the walk met m = 8 first, and its largest boundary
    # went first and was refused
    assert stacks == []
    # over Q nothing is dense: the complete intersection of 8 quadrics
    table = betti_table(ideal, 0, threads=1)
    assert table.coarse() == {(i, 2 * i + 2): math.comb(8, i + 1) for i in range(8)}


def test_walk_refuses_the_largest_complex_before_ranking_smaller_ones(monkeypatch):
    # the walk of (x1^2, ..., x8^2) meets the points largest support first, and
    # ranks a chunk's complexes largest m first: the m = 8 boundary over the
    # dense limit is refused before the complexes of m = 2, ..., 7 are ranked
    ring = Ring("R", tuple(f"x{i}" for i in range(1, 9)))
    ideal = MonomialIdeal.from_exponents(
        ring, [tuple(2 * (j == i) for j in range(8)) for i in range(8)])
    ranked, walked = [], []
    rank, walk = betti_mod.rank_mod_p, betti_mod._points_betti

    def spy_rank(stack, p):
        ranked.append(stack.shape)
        return rank(stack, p)

    def spy_walk(points, *rest):
        walked.append((points > 0).sum(axis=1))
        return walk(points, *rest)

    monkeypatch.setattr(betti_mod, "rank_mod_p", spy_rank)
    monkeypatch.setattr(betti_mod, "_points_betti", spy_walk)
    monkeypatch.setattr(linalg, "DENSE_CELL_LIMIT", 3919)
    with pytest.raises(CapError, match="reached 3920 cells, over the fixed limit of 3919"):
        betti_table(ideal, 32003, threads=1)
    assert ranked == []
    assert [sizes[0] for sizes in walked] == [8] and (np.diff(walked[0]) <= 0).all()
    # at the limit the same walk answers, and its first rank is the m = 8 boundary
    monkeypatch.setattr(linalg, "DENSE_CELL_LIMIT", 3920)
    table = betti_table(ideal, 32003, threads=1)
    assert table.coarse() == {(i, 2 * i + 2): math.comb(8, i + 1) for i in range(8)}
    assert ranked[0][1] * ranked[0][2] == 3920
