"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is a list of ``Op``.  Building it is the benchmark's set-up:
the seed relabels fixed ideal families (a random order of each ring's
variables, a random order of the operations), so every seed gives new
inputs on which fiberlab does about the same amount of work.  Runs with
different seeds are therefore comparable; drawing new ideals per seed
would not be, because the cost of one fiber-product pair ranges over
three orders of magnitude.  Ideal arithmetic is the exception: its cost
moves with the variable order, so ``ideal-identities`` averages over
several orders in each round.

Operations call fiberlab through module attributes looked up at call time
(``fiberlab.betti_table``, ``fiber.check_reg_formula``, ...), which is
where ``spans.Tracer`` installs its wrappers.  Checks run after the timed
region and use ``oracles`` where a result can be checked without fiberlab.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import fiberlab
from fiberlab import Monomial, MonomialIdeal, Ring, fiber, koszul, maxideal_power, scenarios

import oracles

GF_PRIME = 32003


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its result.

    ``call`` gets the results of the operations run before it in the same
    round; ``check`` gets the result and every result of the round, and
    returns whether the result is correct.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], bool]


def _relabel(names: tuple[str, ...], rng: random.Random) -> tuple[str, ...]:
    order = list(names)
    rng.shuffle(order)
    return tuple(order)


def _vector(ring: Ring, text: str) -> tuple[int, ...]:
    """The exponent vector of a monomial such as ``a^2*b``, in the ring's variable order.

    The benchmark's own parser, so that the oracles' inputs do not go
    through fiberlab's.
    """
    vec = [0] * len(ring.variables)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        vec[ring.variables.index(name)] += int(power or 1)
    return tuple(vec)


def _exponents(ring: Ring, texts) -> list[tuple[int, ...]]:
    return [_vector(ring, t) for t in texts]


def _ideal(ring: Ring, *texts: str) -> MonomialIdeal:
    return MonomialIdeal.from_exponents(ring, _exponents(ring, texts))


def _passed(report, _results) -> bool:
    return report.verdict == "pass"


# -- appendix-lattice ----------------------------------------------------------

APPENDIX_VARS = ("a", "b", "c", "d", "x", "y", "z", "t")
APPENDIX_I = ("a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x",
              "a*c*y", "b*d*y", "a*d*z", "b*c*z", "c*d*y*z*t")
# extra multidegrees per table for the Euler oracle, beyond the table's own
EULER_EXTRA_POINTS = 400


def _regularity(table) -> int:
    return max(sum(b) - i for i, b, _ in table.entries)


def _table_op(name, ideal, char, threads, oracle_gens, reg, seed, same_as=None) -> Op:
    extra = oracles.sample_joins(oracle_gens, EULER_EXTRA_POINTS, seed)

    def call(_results):
        return fiberlab.betti_table(ideal, char, threads=threads)

    def check(table, results) -> bool:
        if table.characteristic != char or _regularity(table) != reg:
            return False
        if same_as is not None and table.entries != results[same_as].entries:
            return False
        return not oracles.euler_mismatches(table.entries, oracle_gens, extra)

    return Op(name, call, check)


def appendix_lattice(seed: int, threads: int) -> list[Op]:
    """Betti tables of I^2, I^3 and m*I^2 over GF(32003), and of I^2 over Q.

    Theorem A.1: reg I^2 = 8, reg I^3 = 9, reg(m I^2) = 9; the Q table of
    I^2 must equal the GF(32003) one.
    """
    rng = random.Random(seed)
    ring = Ring("R", _relabel(APPENDIX_VARS, rng), characteristic=GF_PRIME)
    n = ring.nvars
    gens = _exponents(ring, APPENDIX_I)
    I = MonomialIdeal.from_exponents(ring, gens)
    I2 = I ** 2
    # the oracle's own generating sets: all products of the input generators
    g2 = oracles.as_array(oracles.power(gens, 2), n)
    g3 = oracles.as_array(oracles.power(gens, 3), n)
    gm2 = oracles.as_array(oracles.products(oracles.unit_vectors(n), gens, gens), n)
    return [
        _table_op("I2-gf", I2, GF_PRIME, threads, g2, 8, seed + 1),
        _table_op("I3-gf", I ** 3, GF_PRIME, threads, g3, 9, seed + 2),
        _table_op("mI2-gf", maxideal_power(ring, None, 1) * I2, GF_PRIME, threads, gm2, 9,
                  seed + 3),
        _table_op("I2-q", I2, 0, threads, g2, 8, seed + 4, same_as="I2-gf"),
    ]


# -- claim-loop and tor-exact: fiber-product pairs ------------------------------

# Criterion 9's equigenerated pairs (tests/test_acceptance.py, Random(97)),
# without the six whose 17 checks take over a second each on two cores
# (numbers 1, 6, 14, 15, 18 and 20; together 55 s of the 60 s).  Each
# side is (number of variables, generators).
BASE_PAIRS = (
    ((1, ("a1^3",)), (3, ("b1^2",))),
    ((1, ("a1^2",)), (1, ("b1^2",))),
    ((1, ("a1^2",)), (3, ("b3^2",))),
    ((1, ("a1^3",)), (1, ("b1^2",))),
    ((2, ("a1^2", "a1*a2", "a2^2")), (1, ("b1^2",))),
    ((1, ("a1^2",)), (2, ("b1^2", "b1*b2"))),
    ((3, ("a1^2", "a1*a2", "a2*a3")), (1, ("b1^2",))),
    ((3, ("a1^2", "a2^2")), (1, ("b1^3",))),
    ((2, ("a2^2",)), (2, ("b2^2",))),
    ((2, ("a1*a2^2", "a2^3")), (1, ("b1^2",))),
    ((1, ("a1^3",)), (1, ("b1^2",))),
    ((2, ("a1*a2",)), (2, ("b1^2",))),
    ((1, ("a1^2",)), (1, ("b1^2",))),
    ((1, ("a1^3",)), (3, ("b1*b3", "b2^2", "b2*b3", "b3^2"))),
    ((1, ("a1^3",)), (1, ("b1^2",))),
    ((1, ("a1^2",)), (3, ("b1*b2", "b1*b3", "b2^2", "b2*b3"))),
    ((3, ("a1*a2*a3",)), (1, ("b1^2",))),
    ((1, ("a1^2",)), (2, ("b1^3", "b1^2*b2", "b1*b2^2"))),
    ((2, ("a2^2",)), (2, ("b1^2",))),
)


def _factor(name: str, spec, rng: random.Random) -> MonomialIdeal:
    nvars, texts = spec
    names = tuple(f"{name.lower()}{i}" for i in range(1, nvars + 1))
    return _ideal(Ring(name, _relabel(names, rng)), *texts)


def _seeded_pairs(seed: int) -> list[tuple[int, MonomialIdeal, MonomialIdeal]]:
    rng = random.Random(seed)
    pairs = [(k, _factor("A", left, rng), _factor("B", right, rng))
             for k, (left, right) in enumerate(BASE_PAIRS)]
    rng.shuffle(pairs)
    return pairs


def _filtration_ok(filt, _results) -> bool:
    return filt.sum_ok and all(filt.intersection_ok)


def claim_loop(seed: int, threads: int) -> list[Op]:
    """Criteria 9-11 over Q: thm-5.1, cor-5.2, prop-3.4/thm-6.1, thm-3.6."""
    ops = []
    for k, left, right in _seeded_pairs(seed):
        setup = fiber.fiber_product(left, right)
        tag = f"pair{k}"
        for s in (1, 2, 3):
            for claim, fn in (("thm-5.1", "check_reg_formula"),
                              ("cor-5.2", "check_reg_formula_equigenerated"),
                              ("depth", "check_depth_formula")):
                ops.append(Op(
                    f"{tag}/{claim}/s={s}",
                    lambda _r, fn=fn, s=s, setup=setup:
                        getattr(fiber, fn)(setup, s, 0, threads=threads),
                    _passed,
                ))
        ops.append(Op(
            f"{tag}/thm-3.6/F=H+J",
            lambda _r, setup=setup:
                fiber.verify_betti_splitting(setup.F, setup.H, setup.J, 0, threads=threads),
            _passed,
        ))
        for s in (2, 3):
            filt_name = f"{tag}/filtration/s={s}"
            ops.append(Op(filt_name, lambda _r, s=s, setup=setup: fiber.filtration(setup, s),
                          _filtration_ok))
            for t in range(1, s + 1):
                ops.append(Op(
                    f"{tag}/thm-3.6/s={s}/t={t}",
                    lambda r, t=t, filt_name=filt_name: fiber.verify_betti_splitting(
                        r[filt_name].stages[t], r[filt_name].stages[t - 1],
                        r[filt_name].added[t - 1], 0, threads=threads),
                    _passed,
                ))
    return ops


# Criterion 12's soundness inclusions (Random(171)): small in k[x,y], big = d*(small)
SOUNDNESS_IDEALS = (
    ("x*y^2", "x^2"), ("x^2",), ("x^2",), ("x*y",), ("x^2*y",),
    ("y^2",), ("y^3", "x^2"), ("x^3*y",), ("x^3*y", "x*y^2"), ("x*y^3", "x^2"),
)
# brute-force degree for the star-derivative oracle: above every generator
SOUNDNESS_DEGREE = 6


def _lemma_op(name, ideal, s, mode, partner) -> Op:
    def check(report, results) -> bool:
        other = results[partner]
        return (report.verdict == "pass" and other.verdict == "pass"
                and report.computed["perStep"] == other.computed["perStep"])

    return Op(name, lambda _r: fiber.verify_tor_vanishing_lemma(ideal, s, mode, 0), check)


def _soundness_op(name: str, small: MonomialIdeal) -> Op:
    n = small.ring.nvars
    star = oracles.star_derivative_gens(small.gens)

    def call(_results):
        big = fiberlab.star_derivative(small)
        vanishing, _ = koszul.tor_vanishing(small, big, 0)
        return big, vanishing

    def check(result, _results) -> bool:
        big, vanishing = result
        in_big = oracles.in_gens(big.gens, n)
        return (vanishing
                and not oracles.membership_mismatches(
                    n, SOUNDNESS_DEGREE, in_big, oracles.in_gens(star, n))
                and not oracles.membership_mismatches(
                    n, SOUNDNESS_DEGREE, oracles.in_gens(small.gens, n),
                    oracles.in_both(oracles.in_gens(small.gens, n), in_big)))

    return Op(name, call, check)


def tor_exact(seed: int, threads: int) -> list[Op]:
    """Lemma 4.1 in exact and certificate mode, and criterion 12's soundness."""
    ops = []
    for k, left, right in _seeded_pairs(seed):
        for side, ideal in (("A", left), ("B", right)):
            for s in (2, 3):
                tag = f"pair{k}{side}/s={s}"
                ops.append(_lemma_op(f"{tag}/exact", ideal, s, "exact", f"{tag}/certificate"))
                ops.append(_lemma_op(f"{tag}/certificate", ideal, s, "certificate",
                                     f"{tag}/exact"))
    rng = random.Random(seed + 1)
    for k, texts in enumerate(SOUNDNESS_IDEALS):
        ring = Ring("S", _relabel(("x", "y"), rng))
        ops.append(_soundness_op(f"soundness{k}", _ideal(ring, *texts)))
    return ops


# -- ideal-identities -------------------------------------------------------------

# Lemma A.4's s range, widened from the scenario's 0..3
A4_S_RANGE = range(0, 5)
# relabelings per round: the cost of one identity moves by up to 40% with
# the order of the ring's variables, so a round averages over several
RELABELINGS = 3
# brute-force degree of the identity oracles: above every generator of both sides
IDENTITY_DEGREE = 8


def _appendix_env(seed: int) -> dict:
    """The special ideal and its companions (scenarios.appendix_ideals), relabeled."""
    rng = random.Random(seed)
    R = Ring("R", _relabel(APPENDIX_VARS, rng))
    H = _ideal(R, "a^2", "b^2", "c^2", "d^2")
    ab, cd = _ideal(R, "a", "b"), _ideal(R, "c", "d")
    ac, bd = _ideal(R, "a", "c"), _ideal(R, "b", "d")
    return {
        "ring": R,
        "I": _ideal(R, *APPENDIX_I),
        "q": _ideal(R, "a", "b", "c", "d"),
        "H": H,
        "K": _ideal(R, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x"),
        "L": _ideal(R, "a^2", "b^2", "c^2", "d^2", "a*b", "c*d"),
        "V1": H ** 2 + H * ab * cd + _ideal(R, "a*b") * _ideal(R, "c^2", "d^2")
        + _ideal(R, "a^2", "b^2") * _ideal(R, "c*d"),
        "V2": H ** 2 + H * ac * bd + _ideal(R, "a*c") * _ideal(R, "b^2", "d^2")
        + _ideal(R, "a^2", "c^2") * _ideal(R, "b*d"),
    }


def _holds(result, _results) -> bool:
    return result is True


def _a3_ii_oracle(env):
    """I^3 : xyz = (a,b,c,d)^6, by brute force below IDENTITY_DEGREE."""
    R = env["ring"]
    n = R.nvars
    I = _exponents(R, APPENDIX_I)
    q = _exponents(R, ("a", "b", "c", "d"))
    xyz = _vector(R, "x*y*z")
    brute_lhs = oracles.in_colon(oracles.power(I, 3), n, xyz)
    brute_rhs = oracles.in_gens(oracles.power(q, 6), n)
    return brute_lhs, brute_rhs


def _a4_ii_oracle(env):
    """(I^3 + x) : yz = x + H*V1 + W_0, by brute force below IDENTITY_DEGREE."""
    R = env["ring"]
    n = R.nvars
    e = lambda *texts: _exponents(R, texts)  # noqa: E731
    I3 = oracles.power(e(*APPENDIX_I), 3)
    H = e("a^2", "b^2", "c^2", "d^2")
    V1 = (oracles.power(H, 2) | oracles.products(H, e("a", "b"), e("c", "d"))
          | oracles.products(e("a*b"), e("c^2", "d^2"))
          | oracles.products(e("a^2", "b^2"), e("c*d")))
    W0 = (oracles.products(H, e("a*b*c*d"), e("y", "z"))
          | oracles.products(e("t*c*d"), oracles.power(e("c^2", "d^2"), 2)))
    yz = _vector(R, "y*z")
    brute_lhs = oracles.in_colon(I3 | set(e("x")), n, yz)
    brute_rhs = oracles.in_gens(set(e("x")) | oracles.products(H, V1) | W0, n)
    return brute_lhs, brute_rhs


def _oracle_check(env, oracle):
    """The program's two sides against brute force, and the identity itself.

    Every round returns the same sides, so a verdict is kept per distinct
    pair of generator sets and the brute force runs once per run.
    """
    n = env["ring"].nvars
    brute_lhs, brute_rhs = oracle(env)
    verdicts: dict = {}

    def check(result, _results) -> bool:
        lhs, rhs = result
        key = (lhs.gens, rhs.gens)
        if key not in verdicts:
            verdicts[key] = (
                lhs == rhs
                and not oracles.membership_mismatches(
                    n, IDENTITY_DEGREE, oracles.in_gens(lhs.gens, n), brute_lhs)
                and not oracles.membership_mismatches(
                    n, IDENTITY_DEGREE, oracles.in_gens(rhs.gens, n), brute_rhs)
                and not oracles.membership_mismatches(n, IDENTITY_DEGREE, brute_lhs, brute_rhs))
        return verdicts[key]

    return check


def ideal_identities(seed: int, threads: int) -> list[Op]:
    """Lemmas A.3 and A.4 in RELABELINGS seeded orders of the ring's variables."""
    rng = random.Random(seed)
    return [op for k in range(RELABELINGS)
            for op in _identity_ops(_appendix_env(rng.randrange(1 << 30)), f"L{k}/")]


def _identity_ops(env: dict, tag: str) -> list[Op]:
    """Lemma A.3 (i)-(v) and Lemma A.4 (i)-(iii), (iv)-(vii) for s in A4_S_RANGE."""
    R, I, q, H, K, L, V1, V2 = (env[k] for k in ("ring", "I", "q", "H", "K", "L", "V1", "V2"))
    mono = lambda text: Monomial(R, _vector(R, text))  # noqa: E731
    x, y = _ideal(R, "x"), _ideal(R, "y")
    yz, xz = _ideal(R, "y", "z"), _ideal(R, "x", "z")
    abcd, t = _ideal(R, "a*b*c*d"), _ideal(R, "t")
    c2d2 = _ideal(R, "c^2", "d^2")
    tcd = _ideal(R, "t*c*d")

    ops = [
        Op(tag + "A3.i", lambda _r: I ** 4 == H * I ** 3, _holds),
        Op(tag + "A3.ii", lambda _r: ((I ** 3).colon(mono("x*y*z")), q ** 6),
           _oracle_check(env, _a3_ii_oracle)),
        Op(tag + "A3.iii", lambda _r: (K ** 3).colon(mono("x^2")) == L ** 3, _holds),
        Op(tag + "A3.iv", lambda _r: (K ** 3).colon(mono("x")) + x == H ** 2 * L + x, _holds),
    ]
    for s in (1, 2, 3):
        ops.append(Op(f"{tag}A3.v/s={s}", lambda _r, s=s: (L ** s).contains(q ** (2 * s + 1)),
                      _holds))
    ops += [
        Op(tag + "A4.i", lambda _r: V1.contains(q ** 5), _holds),
        Op(tag + "A4.ii", lambda _r: ((I ** 3 + x).colon(mono("y*z")),
                                x + H * V1 + scenarios.appendix_w(env, 0)),
           _oracle_check(env, _a4_ii_oracle)),
        Op(tag + "A4.iii", lambda _r: (I ** 3 + y).colon(mono("x*z"))
           == y + H * V2 + H * abcd * xz, _holds),
    ]

    def a4_iv(s):
        return ((H ** s * I ** 3 + x).colon(mono("y*z"))
                == x + H ** (s + 1) * V1 + scenarios.appendix_w(env, s))

    def a4_v(s):
        B = H ** (s + 1) * abcd * yz
        return (H ** (s + 1) * V1 & B) == q * B

    def a4_vi(s):
        W = scenarios.appendix_w(env, s)
        return (H ** (s + 1) * V1 & W) == q * W

    def a4_vii(s):
        B = H ** (s + 1) * abcd * yz
        C = tcd * c2d2 ** (s + 2)
        qW = q * scenarios.appendix_w(env, s)
        BC = B & C
        return (BC == abcd * yz * t * c2d2 ** (s + 2) and qW.contains(BC)
                and (B & qW) == q * B and (C & qW) == q * C)

    for s in A4_S_RANGE:
        for label, fn in (("iv", a4_iv), ("v", a4_v), ("vi", a4_vi), ("vii", a4_vii)):
            ops.append(Op(f"{tag}A4.{label}/s={s}", lambda _r, fn=fn, s=s: fn(s), _holds))
    return ops


WORKLOADS = {
    "appendix-lattice": appendix_lattice,
    "claim-loop": claim_loop,
    "tor-exact": tor_exact,
    "ideal-identities": ideal_identities,
}


def build(name: str, seed: int, threads: int) -> list[Op]:
    return WORKLOADS[name](seed, threads)
