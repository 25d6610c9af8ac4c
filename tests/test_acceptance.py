"""Acceptance suite: one test per criterion, exact values, fixed seeds.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an ``ACCEPTANCE n PASS`` line on success.
"""

import json
import math
import random

import pytest

import fiberlab.betti as betti_mod
from fiberlab import (
    Graph,
    MonomialIdeal,
    Ring,
    betti_table,
    check_componentwise,
    check_depth_formula,
    check_reg_formula,
    check_reg_formula_equigenerated,
    check_reg_increasing,
    detect_bipartite_join,
    fiber_product,
    filtration,
    join_fiber_setup,
    maxideal_power,
    reg_of,
    star_derivative,
    tor_vanishing,
    verify_betti_splitting,
    verify_tor_vanishing_lemma,
)
from fiberlab.ideals import monomials_of_degree
from fiberlab.koszul import max_lattice_degree
from fiberlab.scenarios import run_scenario

from conftest import ideal_of, koszul_tor, run_fiberlab
from test_graphs import brute_force_has_join


def _announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}", flush=True)


def _sample_ideal_for_agreement(rng):
    """<= 5 vars, <= 6 gens, degree <= 4, with a Koszul-engine cost guard."""
    while True:
        n = rng.randint(2, 5)
        ring = Ring(f"R{n}", tuple(f"x{i}" for i in range(1, n + 1)))
        gens = []
        for _ in range(rng.randint(2, 6)):
            d = rng.choice([1, 2, 2, 3, 3, 4])
            vec = [0] * n
            for _ in range(d):
                vec[rng.randrange(n)] += 1
            gens.append(tuple(vec))
        ideal = MonomialIdeal.from_exponents(ring, gens)
        if ideal.is_zero() or ideal.is_unit():
            continue
        top = max_lattice_degree(ideal)
        worst = max(
            math.comb(top - i + n - 1, n - 1) * math.comb(n, i) for i in range(n + 1)
        )
        if worst <= 2200:
            return ideal


def _sample_equigenerated(rng, name):
    """Equigenerated factor: <= 3 vars, <= 4 gens, generator degree in {2, 3}."""
    n = rng.randint(1, 3)
    ring = Ring(name, tuple(f"{name.lower()}{i}" for i in range(1, n + 1)))
    degree = rng.choice([2, 2, 2, 3])
    pool = list(monomials_of_degree(ring, degree))
    gens = rng.sample(pool, rng.randint(1, min(4, len(pool))))
    return MonomialIdeal.from_exponents(ring, gens)


@pytest.fixture(scope="module")
def run9_sample():
    rng = random.Random(97)
    return [
        (
            _sample_equigenerated(rng, "A"),
            _sample_equigenerated(rng, "B"),
        )
        for _ in range(25)
    ]


def test_criterion_01_koszul_baseline():
    ring = Ring("R", ("x", "y", "z"))
    table = betti_table(maxideal_power(ring, None, 1), 0, threads=1)
    assert table.coarse() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    for s in (1, 2, 3, 4):
        assert reg_of(maxideal_power(ring, None, s), 0) == s
    _announce(1, "Koszul baseline (3,3,1) at degrees (1,2,3); reg m^s = s for s=1..4")


def test_criterion_02_engine_agreement():
    rng = random.Random(20260810)
    for _ in range(100):
        ideal = _sample_ideal_for_agreement(rng)
        t_q = betti_table(ideal, 0, threads=1).coarse()
        t_p = betti_table(ideal, 32003, threads=1).coarse()
        assert t_q == koszul_tor(ideal, 0), str(ideal)
        assert t_p == koszul_tor(ideal, 32003), str(ideal)
    _announce(2, "lattice and Koszul engines agree on 100 random ideals over Q and GF(32003)")


def test_criterion_03_square_power_regularity():
    reports = run_scenario("lemma-A5", characteristic=0)
    assert len(reports) == 12
    assert all(r.passed for r in reports), [r.params for r in reports if not r.passed]
    _announce(3, "reg(H^s q^i) = max(2s+3, 2s+i) for s=1,2 and i=0..5")


def test_criterion_04_colon_and_intersection_identities():
    a3 = run_scenario("lemma-A3", characteristic=0)
    a4 = run_scenario("lemma-A4", characteristic=0)
    assert all(r.passed for r in a3), [r.claim for r in a3 if not r.passed]
    assert all(r.passed for r in a4), [r.claim for r in a4 if not r.passed]
    _announce(4, "all colon/intersection identities of the special ideal hold exactly")


def test_criterion_05_appendix_desk_slice():
    reports = run_scenario("appendix-A1")
    assert all(r.passed for r in reports), [
        (r.claim, r.params, r.computed) for r in reports if not r.passed
    ]
    values = {
        (r.claim, r.params.get("s")): r.computed["reg"] for r in reports
    }
    assert values[("thm-A.1-regI3", None)] == 9
    for s in (0, 1, 2):
        assert values[("thm-A.1-regmsI2", s)] == s + 8
    assert values[("thm-A.1-char-agreement", 0)] == 8
    _announce(5, "reg I^3 = 9 and reg(m^s I^2) = s+8 for s=0,1,2, with Q spot check")


def test_criterion_06_mixed_degree_counterexample():
    reports = run_scenario("remark-5.5", characteristic=0)
    assert all(r.passed for r in reports)
    by_claim = {r.claim: r for r in reports}
    gap = by_claim["remark-5.5-cor52-gap"]
    assert gap.computed == {"cor52": 9, "regF2": 10, "equal": False}
    _announce(6, "reg I = reg I^2 = 8, reg(mI) = 9, reg F^2 = 10 > 9 = equigenerated formula")


def test_criterion_07_two_step_shift_counterexample():
    reports = run_scenario("remark-5.6", characteristic=0)
    assert len(reports) == 1 and reports[0].passed
    assert reports[0].computed["regm2I"] == 5
    assert reports[0].computed["naiveFormula"] == 6
    _announce(7, "reg(m^2 I) = 5 < 6 = max(reg I, 2 + t0)")


def test_criterion_08_two_block_family():
    small = run_scenario("remark-5.9", characteristic=0, n=2)
    assert all(r.passed for r in small), [
        (r.claim, r.params, r.computed) for r in small if not r.passed
    ]
    witness = run_scenario("remark-5.9", characteristic=0, n=8)
    assert all(r.passed for r in witness), [
        (r.claim, r.params, r.computed) for r in witness if not r.passed
    ]
    non_monotone = next(r for r in witness if r.claim == "remark-5.9-nonmonotone")
    assert non_monotone.computed["regI"] == 13
    assert non_monotone.computed["regI2"] == 12
    _announce(8, "n=2 full suite; n=8 witness reg I = 13 > reg I^2 = 12")


def test_criterion_09_power_regularity_formulas(run9_sample):
    for left, right in run9_sample:
        setup = fiber_product(left, right)
        for s in (1, 2, 3):
            general = check_reg_formula(setup, s, 0, threads=1)
            assert general.passed, (str(left), str(right), s, general.computed)
            shortcut = check_reg_formula_equigenerated(setup, s, 0, threads=1)
            assert shortcut.passed, (str(left), str(right), s, shortcut.computed)
    _announce(9, "direct reg F^s matches both power formulas on 25 pairs, s=1..3")


def test_criterion_10_depth_formulas(run9_sample):
    for left, right in run9_sample:
        setup = fiber_product(left, right)
        for s in (1, 2, 3):
            report = check_depth_formula(setup, s, 0, threads=1)
            assert report.passed, (str(left), str(right), s, report.computed)
    _announce(10, "depth F = min(2, depth I, depth J) and depth F^s = 1 for s=2,3")


def test_criterion_11_betti_splittings(run9_sample):
    for left, right in run9_sample:
        setup = fiber_product(left, right)
        report = verify_betti_splitting(setup.F, setup.H, setup.J, 0, threads=1)
        assert report.passed, (str(left), str(right), report.computed)
        for s in (2, 3):
            filt = filtration(setup, s)
            assert filt.sum_ok and all(filt.intersection_ok), (str(left), str(right), s)
            for t in range(1, s + 1):
                step = verify_betti_splitting(
                    filt.stages[t], filt.stages[t - 1], filt.added[t - 1], 0, threads=1
                )
                assert step.passed, (str(left), str(right), s, t, step.computed)
        # injectivity consequence: coarse Betti numbers of a summand embed
        total = betti_table(setup.F, 0, threads=1).coarse()
        for part in (setup.H, setup.J):
            if part.is_zero():
                continue
            summand = betti_table(part, 0, threads=1).coarse()
            assert all(summand[key] <= total.get(key, 0) for key in summand)
    _announce(11, "F = H + J and every filtration step verified as a multigraded splitting")


def test_criterion_12_tor_vanishing(run9_sample):
    for left, right in run9_sample:
        for ideal in (left, right):
            if ideal.is_zero():
                continue
            for s in (2, 3):
                cert = verify_tor_vanishing_lemma(ideal, s, "certificate")
                assert cert.passed, (str(ideal), s)
                exact = verify_tor_vanishing_lemma(ideal, s, "exact", 0)
                assert exact.passed, (str(ideal), s)
    # soundness on arbitrary inclusions: certificate forces exact vanishing
    rng = random.Random(171)
    violations = 0
    checked = 0
    while checked < 10:
        ring = Ring("S", ("x", "y"))
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(2, 4)
            vec = [0, 0]
            for _ in range(d):
                vec[rng.randrange(2)] += 1
            gens.append(tuple(vec))
        small = MonomialIdeal.from_exponents(ring, gens)
        if small.is_zero() or small.is_unit():
            continue
        big = star_derivative(small)  # the smallest ideal the certificate allows
        ok, _ = tor_vanishing(small, big, 0)
        if not ok:
            violations += 1
        checked += 1
    assert violations == 0
    _announce(12, "certificate mode passes and exact mode confirms; zero soundness violations")


def test_criterion_13_componentwise_biconditional():
    R2 = Ring("A", ("x", "y"))
    S1 = Ring("B", ("u",))
    S2 = Ring("B", ("u", "v"))
    pairs = [
        (ideal_of(R2, "x^2"), ideal_of(S1, "u^2")),
        (maxideal_power(R2, None, 2), ideal_of(S1, "u^3")),
        (ideal_of(R2, "x^2", "x*y"), maxideal_power(S2, None, 2)),
        (maxideal_power(R2, None, 3), ideal_of(S1, "u^2")),
        (ideal_of(R2, "x^2", "y^2"), ideal_of(S1, "u^2")),
        (ideal_of(R2, "x^2"), ideal_of(S2, "u^2", "v^2")),
        (ideal_of(R2, "x^2", "y^2"), ideal_of(S2, "u^2", "v^2")),
        (ideal_of(R2, "x^3", "x^2*y", "y^3"), ideal_of(S1, "u^2")),
        (maxideal_power(R2, None, 2), ideal_of(S2, "u^2", "v^2")),
        (ideal_of(R2, "x^2", "x*y"), ideal_of(S2, "u^3", "u^2*v", "v^3")),
    ]
    assert len(pairs) == 10
    for left, right in pairs:
        setup = fiber_product(left, right)
        report = check_componentwise(setup, 2, 0)
        assert report.passed, (str(left), str(right), report.computed)
    _announce(13, "componentwise-linearity biconditional holds on 10 designed pairs, s=1,2")


def test_criterion_14_edge_ideals():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.45
        ]
        graph = Graph.from_edges(n, edges)
        assert (detect_bipartite_join(graph) is not None) == brute_force_has_join(graph)
    join_graphs = [
        Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),                       # star
        Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)]),               # K22
        Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),       # K22 + edge
        Graph.from_edges(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),  # K23
        Graph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),  # K33
    ]
    for graph in join_graphs:
        setup = join_fiber_setup(graph)
        report = check_reg_increasing(setup, 3, 0, claim="cor-8.2")
        assert report.passed, report.computed
    _announce(14, "join detection matches brute force on 20 graphs; reg I(G)^s strictly increases")


def _cli(*argv: str) -> bytes:
    return run_fiberlab(*argv, "--stable-json", text=False).stdout


def test_criterion_15_determinism(tmp_path):
    defs = tmp_path / "defs.fl"
    defs.write_text(
        "ring R = [a,b,c];\nring S = [x];\n"
        "I = ideal(R; a^4, a^3*b, a*b^3, b^4, a^2*b^2*c^4);\n"
        "J = ideal(S; x^4);\n"
    )
    invocations = [
        ("scenario", "lemma-A3"),
        ("scenario", "remark-5.6"),
        ("--json", "betti", str(defs), "I"),
        ("invariants", str(defs), "I", "--json"),
        ("verify", "thm-5.1", "--input", str(defs), "--I", "I", "--J", "J", "--s", "2"),
    ]
    for argv in invocations:
        first = _cli(*argv)
        again = _cli(*argv)
        assert first == again and first, argv
    # a table read off the process's homology cache equals the one that filled it
    ring = Ring("R", ("a", "b", "c", "d"))
    ideal = maxideal_power(ring, None, 2) * ideal_of(ring, "a^2", "b^2", "c^2", "d^2")
    betti_mod._CACHES.clear()
    cold = betti_table(ideal, 32003)
    warm = betti_table(ideal, 32003)
    assert json.dumps(cold.to_json_dict(), sort_keys=True) == json.dumps(
        warm.to_json_dict(), sort_keys=True
    )
    _announce(15, "reruns produce byte-identical JSON")
