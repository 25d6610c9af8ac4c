"""The lattice Betti engine against independent oracles."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberlab.betti as betti_mod
import fiberlab.ideals as ideals_mod
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
from fiberlab.scenarios import appendix_ideals

import fiberlab.linalg as linalg

from conftest import (closure, contractible, exact_rank, full_closure, ideal_of, koszul_tor,
                      lcm_lattice, minimal_masks, product_split_pairwise, random_ideal,
                      rank_mod_p_oracle, reduced_homology_dims, upper_koszul, walk,
                      walk_per_point)


# values of betti's constants that force each branch of _closure and _points_betti:
# "rank" closes rank by rank and walks on arrays on every input; "dense" closes by counting
# over the box wherever the box fits in the cap, and walks on arrays; "ints" takes the
# Python-int branch of both on every input that packs into one word
BRANCHES = {
    "rank": {"_SMALL_CLOSURE_CELLS": 0, "_SMALL_WALK_PAIRS": 0, "_DENSE_CELLS_PER_PAIR": 0},
    "dense": {"_SMALL_CLOSURE_CELLS": 0, "_SMALL_WALK_PAIRS": 0,
              "_DENSE_CELLS_PER_PAIR": 1 << 62},
    "ints": {"_SMALL_CLOSURE_CELLS": 1 << 62, "_SMALL_WALK_PAIRS": 1 << 62,
             "_DENSE_CELLS_PER_PAIR": 0},
}


def force_branch(patch, branch: str) -> None:
    for name, value in BRANCHES[branch].items():
        patch.setattr(betti_mod, name, value)


def spy_dense(patch) -> list:
    """Record the generators of every ``betti._dense_closure`` call from now on."""
    calls, dense = [], betti_mod._dense_closure

    def spy(gens, top):
        calls.append(gens.tolist())
        return dense(gens, top)

    patch.setattr(betti_mod, "_dense_closure", spy)
    return calls


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
    points = full_closure(ideal.array(), 10_000)
    assert sorted(map(tuple, points.tolist())) == sorted(expected)
    flagged = contractible(points, ideal.array())
    assert 0 < flagged.sum() < len(points)
    for b, pruned in zip(points.tolist(), flagged):
        lowered = [e - (e > 0) for e in b]
        assert pruned == any(all(g <= e for g, e in zip(gen, lowered)) for gen in ideal.gens)


def test_lattice_cap(ring_xy):
    # the cap bounds the distinct points the closure holds at once.  (x, y)^4 has 5
    # generators, all surviving; round 1 holds their 10 pairwise joins, of which the 4
    # of adjacent generators survive; round 2 joins those 4 with the generators and holds
    # the other 6 again.  So 5 + 10 = 9 + 6 = 15 points are held at the peak, and 9 survive.
    # Its box has 25 cells, past every cap here, so no branch counts over it; nor does the
    # box of 6 cells of (x^2, xy), whose closure holds 3 points, under lattice=2
    ideal = maxideal_power(ring_xy, None, 4)
    gens = ideal.array()
    pair = ideal_of(ring_xy, "x^2", "x*y")
    for branch, words in itertools.product(BRANCHES, (1, betti_mod._CLOSURE_WORDS)):
        with pytest.MonkeyPatch.context() as patch:  # words 1: a chunk per frontier point
            force_branch(patch, branch)
            patch.setattr(betti_mod, "_CLOSURE_WORDS", words)
            dense = spy_dense(patch)
            assert len(closure(gens, 15)) == 9
            with pytest.raises(CapError, match="reached 15 points, over cap lattice=14"):
                closure(gens, 14)
            assert betti_table(ideal, 0, Caps(lattice=15)).total(1) == 4
            with pytest.raises(CapError):
                betti_table(ideal, 0, Caps(lattice=14))
            with pytest.raises(CapError):
                betti_table(ideal, 0, Caps(lattice=3))
            with pytest.raises(CapError) as refused:
                betti_table(pair, 0, Caps(lattice=2))
            assert str(refused.value) == ("lcm lattice reached 3 points, over cap lattice=2 "
                                          "(set FIBERLAB_CAPS=lattice=<value>)")
            assert dense == []
    with pytest.raises(DomainError):
        betti_table(MonomialIdeal.zero(ring_xy), 0)
    with pytest.raises(DomainError):
        lcm_lattice(MonomialIdeal.zero(ring_xy))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=7)),
       # scaled by 2^16, 4 or more variables pack into two words
       st.sampled_from([1, 1 << 16]),
       st.sampled_from([1, None]))  # the closure's chunk words: 1 joins a frontier point a chunk
@example([(0, 0, 0)], 1, None)  # the unit ideal: its one point 0 survives
@example([(3, 1, 0, 2, 1), (1, 3, 2, 0, 1), (0, 2, 3, 1, 2), (2, 0, 1, 3, 3)], 1 << 16, 1)
def test_closure_is_the_full_lattice_less_its_contractible_points(gens, scale, words):
    ring = Ring("R", tuple(f"v{i}" for i in range(len(gens[0]))))
    ideal = MonomialIdeal.from_exponents(ring, [tuple(e * scale for e in g) for g in gens])
    array = ideal.array()
    full = full_closure(array, 100_000)
    want = full[~contractible(full, array)]
    for branch in BRANCHES:
        with pytest.MonkeyPatch.context() as patch:
            force_branch(patch, branch)
            if words is not None:
                patch.setattr(betti_mod, "_CLOSURE_WORDS", words)
            got = closure(array, 100_000)
        # the same points in the same order, which the walk's chunks follow
        assert got.tolist() == want.tolist()


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
    points = full_closure(gens, 100)
    flagged = {tuple(int(e) for e in b)
               for b in points[contractible(points, gens)]}
    assert flagged == {(2, 2)}
    assert len(upper_koszul(ideal, (2, 2)).faces) == 4
    assert not any(b == (2, 2) for _, b in betti_table(ideal, 0, threads=1).multigraded())
    # the point 0 of the unit ideal carries beta_0 and is never pruned
    unit = MonomialIdeal.unit(ring_xy).array()
    assert not contractible(unit, unit).any()


def test_masks_with_one_minimal_antichain_share_a_cache_key():
    # at (2,1,2) the divisors x^2, x*y give tight masks {x}, {y}; at (2,1,1)
    # y*z adds {y,z}, which contains {y}: both complexes are the same
    gens = np.array([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)], dtype=np.int32)
    raw_a = np.array([0b001, 0b010], dtype=np.int64)
    raw_b = np.array([0b110, 0b010, 0b001, 0b010], dtype=np.int64)
    assert minimal_masks(raw_a).tobytes() == minimal_masks(raw_b).tobytes()
    cache: dict = {}
    points = np.array([(2, 1, 2), (2, 1, 1)], dtype=np.int32)
    walk(points, gens, 0, cache)
    assert list(cache) == [(3, minimal_masks(raw_a).tobytes())]


def test_minimal_masks_keep_the_faces():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        raw = rng.integers(1, 1 << m, size=int(rng.integers(1, 12))).astype(np.int64)
        minimal = minimal_masks(raw)
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
        for masks in (raw, minimal_masks(raw)):
            idx = np.arange(1 << m, dtype=np.int64)
            expected = ((idx[:, None] & masks[None, :]) == 0).any(axis=1)
            assert (betti_mod._faces([masks], m)[0] == expected).all()


walk_inputs = st.tuples(
    st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=6)),
    # the exponents' scale: scaled by 2^16, 4 or more variables pack into two words
    st.sampled_from([1, 1 << 16]),
    st.sampled_from([0, 32003]),
    st.sampled_from([None, 1, 200]),  # the walk's chunk cells: 1 walks a point a chunk
    st.sampled_from([None, 64]),  # the homology's cell budget
)


def _raise_on_homology(*_args):
    raise AssertionError("a cached complex reached the homology")


@settings(max_examples=60, deadline=None)
@given(walk_inputs)
def test_bulk_walk_matches_the_per_point_walk(drawn):
    gens, scale, char, chunk_cells, budget = drawn
    ring = Ring("R", tuple(f"v{i}" for i in range(len(gens[0]))))
    ideal = MonomialIdeal.from_exponents(ring, [tuple(e * scale for e in g) for g in gens])
    array = ideal.array()
    points = full_closure(array, 10_000)  # contractible points included
    points = points[np.argsort(-(points > 0).sum(axis=1), kind="stable")]
    for branch in BRANCHES:
        with pytest.MonkeyPatch.context() as patch:
            force_branch(patch, branch)
            if chunk_cells is not None:
                patch.setattr(betti_mod, "_CHUNK_CELLS", chunk_cells)
            if budget is not None:
                patch.setattr(linalg, "_CELL_BUDGET", budget)
            bulk_cache, oracle_cache = {}, {}
            bulk = walk(points, array, char, bulk_cache)
            assert bulk == walk_per_point(points, array, char, oracle_cache)
            assert bulk_cache == oracle_cache
            # a second walk over the same cache reads it: no homology is computed
            patch.setattr(betti_mod, "_homology_from_masks", _raise_on_homology)
            assert walk(points, array, char, bulk_cache) == bulk


def test_bulk_walk_on_several_packed_words_and_one_point_chunks():
    # the Appendix A ideal's square with its exponents scaled by 2^16: 8 fields
    # of 20 bits with their guards need three words; chunks of one point and of
    # the default size
    ring = Ring("R", tuple("abcdxyzt"))
    base = ideal_of(ring, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x", "a*c*y", "b*d*y",
                    "a*d*z", "b*c*z", "c*d*y*z*t") ** 2
    array = base.array() << 16
    assert betti_mod._Packing(array.max(axis=0)).nwords > 1
    points = full_closure(array, 100_000)
    points = points[~contractible(points, array)][:400]
    want = walk_per_point(points, array, 32003, {})
    assert want
    for chunk_cells in (1, betti_mod._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(betti_mod, "_CHUNK_CELLS", chunk_cells)
            assert walk(points, array, 32003, {}) == want


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


def test_q_homology_falls_back_to_exact_ranks_where_the_prime_cannot_certify(monkeypatch):
    # RP^2 has 2-torsion: over GF(2) its homology is nonzero in two adjacent
    # degrees, so a certifying prime of 2 settles nothing there and the
    # boundary between them is ranked again by rank_exact
    masks = rp2_masks()
    exact_calls = []
    rank_exact = betti_mod.rank_exact

    def spy(rows):
        exact_calls.append(len(rows))
        return rank_exact(rows)

    monkeypatch.setattr(betti_mod, "rank_exact", spy)
    monkeypatch.setattr(betti_mod, "_CERTIFY_MIN_FACES", 0)  # RP^2 has 32 faces
    assert betti_mod._homology_from_masks([masks], 6, 0) == [{}]
    assert exact_calls == []  # over GF(2^31 - 1) RP^2 is acyclic: certified at once
    monkeypatch.setattr(betti_mod, "_CERTIFYING_PRIME", 2)
    assert betti_mod._homology_from_masks([masks], 6, 0) == [{}]
    assert exact_calls  # the fallback fired
    assert betti_mod._homology_from_masks([masks], 6, 2) == [{2: 1, 3: 1}]


def rp2_ideal() -> MonomialIdeal:
    """The squarefree ideal whose upper Koszul complex at (1, ..., 1) is RP^2:
    x^(b - tau) lies in it iff tau is inside a triangle."""
    ring = Ring("R", tuple(f"x{v}" for v in range(6)))
    return MonomialIdeal.from_exponents(
        ring, [tuple(int(mask) >> v & 1 for v in range(6)) for mask in rp2_masks()])


def test_rp2_ideal_q_table_does_not_depend_on_the_certifying_prime():
    ideal = rp2_ideal()
    assert upper_koszul(ideal, (1,) * 6).faces == tuple(
        f for f in range(64) if any(f & int(mask) == 0 for mask in rp2_masks()))
    q = betti_table(ideal, 0, threads=1)
    gf2 = betti_table(ideal, 2, threads=1)
    primes = []
    rank = betti_mod.rank_mod_p

    def spy(stack, p):
        primes.append(p)
        return rank(stack, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(betti_mod, "rank_mod_p", spy)
        patch.setattr(betti_mod, "_CERTIFY_MIN_FACES", 0)
        betti_mod._CACHES.clear()  # each table is computed afresh, not read from the cache
        assert betti_table(ideal, 0, threads=1).entries == q.entries
        assert set(primes) == {2**31 - 1}
        patch.setattr(betti_mod, "_CERTIFYING_PRIME", 2)
        betti_mod._CACHES.clear()
        assert betti_table(ideal, 0, threads=1).entries == q.entries
        assert 2 in primes
    assert gf2.entries != q.entries
    assert gf2.coarse() != q.coarse()


def _computed_complexes(monkeypatch) -> list[tuple[int, bytes]]:
    """The (m, masks) keys of every complex that reaches the homology from now on."""
    computed = []
    homology = betti_mod._homology_from_masks

    def spy(batch, m, char):
        computed.extend((m, masks.tobytes()) for masks in batch)
        return homology(batch, m, char)

    monkeypatch.setattr(betti_mod, "_homology_from_masks", spy)
    return computed


def _cold_table(ideal, char):
    betti_mod._CACHES.clear()
    return betti_table(ideal, char, threads=1)


def test_warm_answers_equal_cold_ones():
    # the process's cache is keyed by field: the RP^2 complex has homology over
    # GF(2) only, and the Q table computed after the GF(2) one must not read it
    rp2 = rp2_ideal()
    gf2 = betti_table(rp2, 2, threads=1)
    q = betti_table(rp2, 0, threads=1)
    assert q.entries == _cold_table(rp2, 0).entries != gf2.entries
    rng = random.Random(17)
    ring = Ring("R", tuple("xyzw"))
    ideals = [random_ideal(rng, ring, max_gens=6, max_deg=4) for _ in range(30)]
    ideals += [rp2, ideal_of(ring, "x^2", "x*y", "y^2") ** 2]
    for char in (0, 2, 32003):
        cold = [_cold_table(ideal, char).entries for ideal in ideals]
        betti_mod._CACHES.clear()
        for _ in range(2):  # a warm pass, then one that finds every complex cached
            assert [betti_table(ideal, char, threads=1).entries for ideal in ideals] == cold


def test_a_second_ideal_computes_none_of_the_complexes_the_first_cached(ring_xyz, monkeypatch):
    # every complex of (x^2, xy, y^2) is one of (x^2, xz, z^2, y^3)'s, on other variables
    first = ideal_of(ring_xyz, "x^2", "x*y", "y^2")
    second = ideal_of(ring_xyz, "x^2", "x*z", "z^2", "y^3")
    computed = _computed_complexes(monkeypatch)
    want = _cold_table(second, 0).entries
    all_of_second = set(computed)
    computed.clear()
    betti_mod._CACHES.clear()
    betti_table(first, 0, threads=1)
    cached = set(computed)
    assert cached < all_of_second
    computed.clear()
    assert betti_table(second, 0, threads=1).entries == want
    assert sorted(computed) == sorted(all_of_second - cached)


def test_large_tables_fill_the_process_cache(monkeypatch):
    # I^2 and I^3 of the Appendix A ideal walk thousands of points each; the walk runs
    # in this process, so a repeated table computes no complex and the next power
    # computes only the complexes that are not cached yet
    I = appendix_ideals(32003)["I"]
    computed = _computed_complexes(monkeypatch)
    betti_mod._CACHES.clear()
    want = betti_table(I ** 3, 32003).entries
    all_of_cube = set(computed)
    computed.clear()
    betti_mod._CACHES.clear()
    square = betti_table(I ** 2, 32003).entries
    cached = set(computed)
    assert cached and cached == set(betti_mod._CACHES[32003])
    computed.clear()
    assert betti_table(I ** 2, 32003).entries == square
    assert computed == []
    assert betti_table(I ** 3, 32003).entries == want
    assert cached & all_of_cube
    assert sorted(computed) == sorted(all_of_cube - cached)


def test_the_homology_cache_stays_within_its_bound():
    # a full cache is emptied before a chunk's new complexes go in; a chunk with
    # more new complexes than the bound leaves them out
    rng = random.Random(23)
    ring = Ring("R", tuple("xyzw"))
    ideals = [random_ideal(rng, ring, max_gens=6, max_deg=4) for _ in range(20)]
    cold = [_cold_table(ideal, 0).entries for ideal in ideals]
    gens = (ideal_of(ring, "x^2", "x*y", "y^2", "z^3", "x*z*w") ** 2).array()
    for branch in BRANCHES:
        with pytest.MonkeyPatch.context() as patch:
            force_branch(patch, branch)
            for bound in (1, 3, 8):
                patch.setattr(betti_mod, "_CACHE_ENTRIES", bound)
                betti_mod._CACHES.clear()
                for ideal, want in zip(ideals, cold):
                    assert betti_table(ideal, 0, threads=1).entries == want
                    assert len(betti_mod._CACHES.get(0, {})) <= bound
            # a dict handed to the walk is held to the bound as well
            cache: dict = {}
            computed = _computed_complexes(patch)
            walk(full_closure(gens, 10_000), gens, 0, cache)
            assert len(set(computed)) > 8 >= len(cache)


def _no_walk(*_args):
    raise AssertionError("a principal ideal was walked")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[st.integers(0, 3)] * n)),
       st.sampled_from([0, 2, 32003]))
def test_principal_ideals_take_no_walk_and_match_it(gen, char):
    # beta_0 at the generator, the unit ideal's 0 included, as the walk finds it
    gens = np.array([gen], dtype=np.int64)
    walked = walk(full_closure(gens, 10), gens, char, {})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(betti_mod, "_points_betti", _no_walk)
        assert betti_mod._multigraded(gens, char, Caps()) == walked == {(0, gen): 1}
        ring = Ring("R", tuple(f"v{i}" for i in range(len(gen))))
        ideal = MonomialIdeal.from_exponents(ring, [gen])
        assert betti_table(ideal, char, threads=1).multigraded() == walked
        # Tor-vanishing from a principal ideal finds no Betti point above Tor_0: into
        # (x_v) the map is zero unless the generator is x_v, where Tor_0 is shared
        for v in np.flatnonzero(gens[0]).tolist():
            x_v = tuple(int(i == v) for i in range(len(gen)))
            big = MonomialIdeal.from_exponents(ring, [x_v])
            want = (False, (0, 1)) if gen == x_v else (True, None)
            assert tor_vanishing(ideal, big, char) == want
    # a lattice cap below its one point still reaches the closure, which refuses it
    with pytest.raises(CapError, match="lcm lattice reached 1 points, over cap lattice=0"):
        betti_mod._multigraded(gens, char, Caps(lattice=0))


def test_a_principal_ideal_past_the_support_limit_answers():
    # it builds no complex, as a product's convolved points build none, so the
    # walk's 24-variable limit does not apply
    ring = Ring("R", tuple(f"x{i}" for i in range(26)))
    ideal = MonomialIdeal.from_exponents(ring, [(1,) * 26])
    assert betti_table(ideal, 0, threads=1).multigraded() == {(0, (1,) * 26): 1}


def test_only_a_batch_of_enough_faces_is_certified(monkeypatch):
    # RP^2 alone has 32 faces and is ranked by rank_exact at once; eight copies
    # have 256 and are ranked over GF(2^31 - 1) first
    primes = []
    rank = betti_mod.rank_mod_p
    monkeypatch.setattr(betti_mod, "rank_mod_p", lambda stack, p: primes.append(p) or rank(stack, p))
    assert betti_mod._homology_from_masks([rp2_masks()], 6, 0) == [{}]
    assert primes == []
    assert betti_mod._homology_from_masks([rp2_masks()] * 8, 6, 0) == [{}] * 8
    assert set(primes) == {2**31 - 1}


@settings(max_examples=80, deadline=None)
@given(mask_batches, st.sampled_from([2, 3, 5, 2**31 - 1]))
def test_certified_q_homology_matches_exact_ranks(drawn, prime):
    # with a small certifying prime many boundaries need the exact fallback
    m, batch = drawn
    if m:
        batch = batch + [_covering(masks, m) for masks in batch]
    batch = [np.array(sorted(set(masks)), dtype=np.int64) for masks in batch]
    if m == 6:
        batch.append(rp2_masks())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(betti_mod, "_CERTIFYING_PRIME", prime)
        patch.setattr(betti_mod, "_CERTIFY_MIN_FACES", 0)
        got = betti_mod._homology_from_masks(batch, m, 0)
    assert got == [reference_homology(masks, m, 0) for masks in batch]


def test_answer_does_not_depend_on_the_batch():
    # one complex alone, among others in either order, and with a cell
    # budget that puts four complexes in a face array (2^6 cells each) and
    # cuts their stacks after one to a few matrices, so the padding and the
    # neighbours in a stack differ
    rng = np.random.default_rng(3)
    batch = [rp2_masks()]
    for _ in range(40):
        raw = rng.integers(1, 1 << 6, size=int(rng.integers(1, 7))).astype(np.int64)
        batch.append(minimal_masks(raw))
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


@st.composite
def split_inputs(draw):
    """Generator sets: products over 2-3 disjoint blocks of variables, with factors of
    1-4 generators (1: a principal factor) and 0-2 variables no factor uses, the
    columns in any order; or any set of generators, which is rarely a product."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                             min_size=1, max_size=8))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    n = sum(sizes) + draw(st.integers(0, 2))
    order = draw(st.permutations(range(n)))
    factors = []
    for at, size in zip(itertools.accumulate([0] + sizes), sizes):
        gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * size).filter(any),
                             min_size=1, max_size=4))
        factors.append([dict(zip(order[at : at + size], g)) for g in gens])
    return [tuple(sum(part.get(c, 0) for part in parts) for c in range(n))
            for parts in itertools.product(*factors)]


@settings(max_examples=150, deadline=None)
@given(split_inputs())
@example([(1,) + tuple(int(j == i) for j in range(5)) for i in range(5)])  # x*(y1, ..., y5)
# (a, b)^2 * (x, y) in [a, b, u, x, y], with u unused
@example([(2 - i, i, 0, 1 - j, j) for i in range(3) for j in range(2)])
@example([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)])  # (x^2, xy, y^2, z): no product
def test_product_split_matches_the_pairwise_oracle(rows):
    # the one-sort split gives the blocks and projections, or the refusal, that the
    # pairwise distinct-row counts gave, with its key columns sorted all at once and
    # one at a time
    ring = Ring("R", tuple(f"v{i}" for i in range(len(rows[0]))))
    gens = MonomialIdeal.from_exponents(ring, rows).array()
    want = product_split_pairwise(gens)
    for cells in (1, betti_mod._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(betti_mod, "_CHUNK_CELLS", cells)
            got = betti_mod._product_split(gens)
        assert (got is None) == (want is None)
        for (cols, sub), (want_cols, want_sub) in zip(got or [], want or [], strict=True):
            assert cols.dtype == want_cols.dtype and cols.tolist() == want_cols.tolist()
            assert sub.dtype == want_sub.dtype and sub.tolist() == want_sub.tolist()


@settings(max_examples=150, deadline=None)
@given(split_inputs())
@example([(1,) + tuple(int(j == i) for j in range(5)) for i in range(5)])  # x*(y1, ..., y5)
@example([(2 - i, i, 0, 1 - j, j) for i in range(3) for j in range(2)])  # (a, b)^2 * (x, y)
def test_the_split_pre_test_never_rejects_a_verified_split(rows):
    # _no_split may turn a set away only if it is no product: every set the pairwise
    # oracle verifies as one passes it, the principal factor of x*(y1, ..., y5) included
    ring = Ring("R", tuple(f"v{i}" for i in range(len(rows[0]))))
    gens = MonomialIdeal.from_exponents(ring, rows).array()
    if product_split_pairwise(gens) is not None:
        assert not betti_mod._no_split(gens)
        assert len(gens) < 4 or betti_mod._product_split(gens) is not None


@st.composite
def verified_products(draw):
    """Products over 2-3 disjoint blocks: two factors of 2-4 distinct generators of one
    degree (so minimal) in 2-3 variables, and maybe a third, any minimal set in 1-2
    variables, principal (no Tor_i with i > 0) or not."""
    factors = []
    for _ in range(2):
        size, degree = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        monomials = [g for g in itertools.product(range(degree + 1), repeat=size)
                     if sum(g) == degree]
        count = draw(st.integers(2, min(4, len(monomials))))
        factors.append(draw(st.permutations(monomials))[:count])
    if draw(st.booleans()):
        size = draw(st.integers(1, 2))
        gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * size).filter(any),
                             min_size=1, max_size=3))
        factors.append(MonomialIdeal.from_exponents(Ring("B", ("u", "v")[:size]), gens).gens)
    return [sum(parts, ()) for parts in itertools.product(*factors)]


@settings(max_examples=100, deadline=None)
@given(verified_products())
@example([(1,) + tuple(int(j == i) for j in range(5)) for i in range(5)])  # x*(y1, ..., y5)
@example([(2 - i, i, 1 - j, j) for i in range(3) for j in range(2)])  # (a, b)^2 * (x, y)
def test_largest_support_is_read_off_the_factors(rows):
    # the support limit that tor_vanishing applies before convolving: the largest
    # support of a convolved point in Tor_i with i > 0
    ring = Ring("R", tuple(f"v{i}" for i in range(len(rows[0]))))
    gens = MonomialIdeal.from_exponents(ring, rows).array()
    factors = betti_mod._factors(gens, 0, Caps())
    assert factors is not None
    table = betti_mod._convolve(factors, gens.shape[1])
    want = max((len(b) - b.count(0) for i, b in table if i > 0), default=0)
    assert betti_mod._largest_support(factors) == want


def test_a_table_builds_one_packing_for_its_closure_and_walk():
    # a table that is no product packs its generators once, on one packing that its
    # closure and its walk share, whichever branch each takes
    ring = Ring("R", ("x", "y", "z"))
    gens = ideal_of(ring, "x^2", "x*y", "y^3", "x*z^2", "y*z").array()
    assert betti_mod._product_split(gens) is None
    want = walk_per_point(full_closure(gens, 10_000), gens, 0, {})
    built = []

    class Counted(betti_mod._Packing):
        def __init__(self, maxexp):
            built.append(maxexp.tolist())
            super().__init__(maxexp)

    for branch in BRANCHES:
        built.clear()
        with pytest.MonkeyPatch.context() as patch:
            force_branch(patch, branch)
            patch.setattr(betti_mod, "_Packing", Counted)
            patch.setattr(ideals_mod, "_Packing", Counted)
            assert betti_mod._multigraded(gens, 0, Caps()) == want
        assert built == [[2, 3, 2]], branch


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


def test_walk_refuses_the_largest_complex_before_ranking_smaller_ones():
    # the walk of (x1^2, ..., x8^2) meets the points largest support first, and
    # ranks a chunk's complexes largest m first: the m = 8 boundary over the
    # dense limit is refused before the complexes of m = 2, ..., 7 are ranked
    ring = Ring("R", tuple(f"x{i}" for i in range(1, 9)))
    ideal = MonomialIdeal.from_exponents(
        ring, [tuple(2 * (j == i) for j in range(8)) for i in range(8)])
    rank, walk = betti_mod.rank_mod_p, betti_mod._points_betti
    for branch in BRANCHES:
        betti_mod._CACHES.clear()
        ranked, walked = [], []

        def spy_rank(stack, p):
            ranked.append(stack.shape)
            return rank(stack, p)

        def spy_walk(points, *rest):
            walked.append((points > 0).sum(axis=1))
            return walk(points, *rest)

        with pytest.MonkeyPatch.context() as patch:
            force_branch(patch, branch)
            patch.setattr(betti_mod, "rank_mod_p", spy_rank)
            patch.setattr(betti_mod, "_points_betti", spy_walk)
            patch.setattr(linalg, "DENSE_CELL_LIMIT", 3919)
            with pytest.raises(CapError, match="reached 3920 cells, over the fixed limit of 3919"):
                betti_table(ideal, 32003, threads=1)
            assert ranked == []
            assert [sizes[0] for sizes in walked] == [8] and (np.diff(walked[0]) <= 0).all()
            # at the limit the same walk answers, and its first rank is the m = 8 boundary
            patch.setattr(linalg, "DENSE_CELL_LIMIT", 3920)
            table = betti_table(ideal, 32003, threads=1)
            assert table.coarse() == {(i, 2 * i + 2): math.comb(8, i + 1) for i in range(8)}
            assert ranked[0][1] * ranked[0][2] == 3920


# -- the Python-int branches of the closure and the walk ---------------------

# generator sets on one packed word: exponents up to 1, 3, 7 or 300 give fields of 1 to
# 9 bits; with their guard bits, six fields of 300 still fit into one word
one_word_gens = st.tuples(st.integers(1, 6), st.sampled_from([1, 3, 7, 300])).flatmap(
    lambda shape: st.lists(st.tuples(*[st.integers(0, shape[1])] * shape[0]).filter(any),
                           min_size=2, max_size=7))


def _one_word_array(gens) -> np.ndarray:
    ring = Ring("R", tuple(f"v{i}" for i in range(len(gens[0]))))
    return MonomialIdeal.from_exponents(ring, gens).array()


def _in_branch(branch: str, fn, *args, **patches):
    """``fn(*args)`` with the branch forced and ``betti`` constants patched, or its CapError."""
    with pytest.MonkeyPatch.context() as patch:
        force_branch(patch, branch)
        for name, value in patches.items():
            patch.setattr(betti_mod, name, value)
        try:
            return fn(*args)
        except CapError as exc:
            return f"CapError: {exc}"


def _assert_same_array(got, want: np.ndarray) -> None:
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(one_word_gens)
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])  # all 15 joins survive
def test_small_closure_matches_the_array_closure(gens):
    array = _one_word_array(gens)
    assert betti_mod._Packing(array.max(axis=0)).nwords == 1
    for words in (1, betti_mod._CLOSURE_WORDS):
        # every cap from 1 up to the first that holds the closure: the same refusal
        # (message and count included) or the same points, in the same order and dtype
        for cap in itertools.count(1):
            rank, *others = (_in_branch(branch, closure, array, cap,
                                        _CLOSURE_WORDS=words) for branch in BRANCHES)
            if isinstance(rank, str):
                assert others == [rank] * len(others)
                continue
            for got in others:
                _assert_same_array(got, rank)
            break


@settings(max_examples=60, deadline=None)
@given(one_word_gens, st.sampled_from([0, 2, 32003]), st.sampled_from([None, 1]),
       st.sampled_from([None, 2]))
def test_small_walk_matches_the_array_walk(gens, char, chunk_cells, cache_entries):
    # the same entries and the same cache, with a point a chunk and a cache of two
    # entries, from an empty cache and from the cache the first walk left
    array = _one_word_array(gens)
    points = full_closure(array, 100_000)  # contractible points included
    points = points[np.argsort(-(points > 0).sum(axis=1), kind="stable")]
    patches = {}
    if chunk_cells is not None:
        patches["_CHUNK_CELLS"] = chunk_cells
    if cache_entries is not None:
        patches["_CACHE_ENTRIES"] = cache_entries
    caches = {branch: {} for branch in BRANCHES}
    for _ in range(2):
        walks = [_in_branch(branch, walk, points, array, char,
                            caches[branch], **patches) for branch in BRANCHES]
        assert walks == [walks[0]] * len(walks)
        assert all(cache == caches["rank"] for cache in caches.values())


def test_both_walks_refuse_a_support_past_the_limit(ring_xy):
    # x1...x13 and x13...x25 join at a point on 25 variables, which packs into one
    # word; each branch refuses it with the same message, before any homology
    ring = Ring("R", tuple(f"x{i}" for i in range(1, 26)))
    ideal = MonomialIdeal.from_exponents(
        ring, [tuple(int(i < 13) for i in range(25)), tuple(int(i >= 12) for i in range(25))])
    gens = ideal.array()
    assert betti_mod._Packing(gens.max(axis=0)).nwords == 1
    points = np.array([[1] * 25] + gens.tolist(), dtype=gens.dtype)
    want = ("CapError: a lattice point reached a support of 25 variables, over the walk's "
            "fixed limit of 24 (not a FIBERLAB_CAPS cap; it cannot be raised)")
    for branch in BRANCHES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(betti_mod, "_homology_from_masks", _raise_on_homology)
            assert _in_branch(branch, walk, points, gens, 0, {}) == want
            assert _in_branch(branch, betti_table, ideal, 0) == want


# -- the dense closure ----------------------------------------------------------

# generator sets with exponents up to 4 in 1 to 4 variables, then 0 to 2 unused columns;
# at most 5^4 = 625 box cells
dense_gens = st.tuples(st.integers(1, 4), st.integers(0, 2)).flatmap(
    lambda shape: st.lists(st.tuples(*[st.integers(0, 4)] * shape[0]), min_size=1, max_size=8)
    .map(lambda gens: [g + (0,) * shape[1] for g in gens]))


@settings(max_examples=80, deadline=None)
@given(dense_gens)
@example([(0, 0)])  # the unit ideal: its one point 0, on one cell
@example([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 4), (4, 4, 0, 4)])  # generators at box corners
@example([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)])  # the corners and the centre
@example([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])  # three unused columns
def test_dense_closure_matches_the_rank_by_rank_closure(gens):
    # at caps of box - 1, box and box + 1: the same refusal, or the same points in the
    # same order and dtype; at a cap of the box or more, the dense branch counts over it
    array = _one_word_array(gens)
    box = math.prod(e + 1 for e in array.max(axis=0).tolist())
    for cap in (box - 1, box, box + 1):
        with pytest.MonkeyPatch.context() as patch:
            dense = spy_dense(patch)
            rank, got = (_in_branch(branch, closure, array, cap) for branch in ("rank", "dense"))
        assert len(dense) == (cap >= box)
        if isinstance(rank, str):
            assert got == rank
        else:
            _assert_same_array(got, rank)


def test_sparse_high_powers_keep_the_rank_by_rank_closure():
    # (x^150, y^150, z^150) has a box of 151^3 = 3,442,951 cells and 4 pure 40th powers one
    # of 41^4 = 2,825,761, against 7 and 15 lattice points: past _DENSE_CELLS_PER_PAIR * k^2
    # for k = 3 and 4, so neither counts over its box, at the default cap or at one past the
    # box, even off the Python-int branch.  Their tables stay the Koszul complexes'
    for n, e in ((3, 150), (4, 40)):
        ring = Ring("R", tuple(f"x{i}" for i in range(n)))
        ideal = MonomialIdeal.from_exponents(
            ring, [tuple(e * (j == i) for j in range(n)) for i in range(n)])
        koszul = {(len(s) - 1, tuple(e * (j in s) for j in range(n))): 1
                  for size in range(1, n + 1) for s in itertools.combinations(range(n), size)}
        assert (e + 1) ** n > betti_mod._DENSE_CELLS_PER_PAIR * n ** 2
        for caps in (Caps(), Caps(lattice=(e + 1) ** n)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(betti_mod, "_SMALL_CLOSURE_CELLS", 0)
                dense = spy_dense(patch)
                assert betti_table(ideal, 0, caps).multigraded() == koszul
                assert betti_table(ideal, 32003, caps).multigraded() == koszul
            assert dense == []
