"""Scripted verification scenarios for the built-in claim registry.

Each scenario builds fixed ideals and checks a batch of exact identities
or invariant values against the registry's expected results, returning
one Report per check.  Scenario names, parameters, and expected values
form the tool's external verification surface; see the README for the
formula each claim id stands for.
"""

from __future__ import annotations

import inspect

from .config import DEFAULT_CAPS, DEFAULT_PRIME, Caps
from .core import Monomial, Ring, parse_monomial
from .errors import DomainError
from .fiber import (
    FiberSetup,
    check_componentwise,
    check_reg_formula,
    check_reg_formula_equigenerated,
    fiber_product,
    verify_betti_splitting,
)
from .ideals import MonomialIdeal, maxideal_power
from .invariants import has_linear_resolution, reg_maxideal_power_formula, reg_of
from .reports import Report, Stopwatch, make_report


# -- fixed ideals of the claim registry --------------------------------------


def appendix_ring(characteristic: int = 0) -> Ring:
    return Ring("R", ("a", "b", "c", "d", "x", "y", "z", "t"), characteristic=characteristic)


def _ideal(ring: Ring, *texts: str) -> MonomialIdeal:
    return MonomialIdeal.from_monomials([parse_monomial(ring, t) for t in texts])


def appendix_ideals(characteristic: int = 0) -> dict[str, MonomialIdeal]:
    """The special 8-variable ideal and its companions.

    I is generated by the squares of a, b, c, d together with abx, cdx,
    acy, bdy, adz, bcz, and cdyzt; q = (a,b,c,d); H = (a^2,b^2,c^2,d^2);
    K adds abx, cdx to H; L adds ab, cd; V1, V2 and the family W_s are the
    auxiliary intersection ideals used by the colon identities.
    """
    R = appendix_ring(characteristic)
    I = _ideal(R, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x",
               "a*c*y", "b*d*y", "a*d*z", "b*c*z", "c*d*y*z*t")
    qq = _ideal(R, "a", "b", "c", "d")
    H = _ideal(R, "a^2", "b^2", "c^2", "d^2")
    K = _ideal(R, "a^2", "b^2", "c^2", "d^2", "a*b*x", "c*d*x")
    L = _ideal(R, "a^2", "b^2", "c^2", "d^2", "a*b", "c*d")
    ab, cd = _ideal(R, "a", "b"), _ideal(R, "c", "d")
    ac, bd = _ideal(R, "a", "c"), _ideal(R, "b", "d")
    V1 = H ** 2 + H * ab * cd + _ideal(R, "a*b") * _ideal(R, "c^2", "d^2") \
        + _ideal(R, "a^2", "b^2") * _ideal(R, "c*d")
    V2 = H ** 2 + H * ac * bd + _ideal(R, "a*c") * _ideal(R, "b^2", "d^2") \
        + _ideal(R, "a^2", "c^2") * _ideal(R, "b*d")
    return {"ring": R, "I": I, "q": qq, "H": H, "K": K, "L": L, "V1": V1, "V2": V2}


def appendix_w(ideals: dict, s: int) -> MonomialIdeal:
    R = ideals["ring"]
    H = ideals["H"]
    return H ** (s + 1) * _ideal(R, "a*b*c*d") * _ideal(R, "y", "z") \
        + _ideal(R, "t*c*d") * _ideal(R, "c^2", "d^2") ** (s + 2)


def remark_55_setup(characteristic: int = 0) -> FiberSetup:
    R = Ring("R", ("a", "b", "c"), characteristic=characteristic)
    S = Ring("S", ("x",), characteristic=characteristic)
    I = _ideal(R, "a^4", "a^3*b", "a*b^3", "b^4", "a^2*b^2*c^4")
    J = _ideal(S, "x^4")
    return fiber_product(I, J)


def remark_56_ideal(characteristic: int = 0) -> MonomialIdeal:
    R = Ring("R", ("a", "b", "c"), characteristic=characteristic)
    return _ideal(R, "a^3", "a*b^2", "a*c^2", "a^2*b*c")


def remark_59_setup(n: int, characteristic: int = 0) -> FiberSetup:
    """(a^4,a^3b,ab^3,b^4)(x_1..x_n)^2 + a^2b^2(x_1^2..x_n^2), against (u^6)."""
    if n < 1:
        raise DomainError("n must be positive")
    R = Ring("R", ("a", "b") + tuple(f"x{i}" for i in range(1, n + 1)),
             characteristic=characteristic)
    S = Ring("S", ("u",), characteristic=characteristic)
    nv = n + 2
    corner = _ideal(R, "a^4", "a^3*b", "a*b^3", "b^4")
    xs = MonomialIdeal.from_exponents(
        R, [tuple(1 if i == v else 0 for i in range(nv)) for v in range(2, nv)]
    )
    x2s = MonomialIdeal.from_exponents(
        R, [tuple(2 if i == v else 0 for i in range(nv)) for v in range(2, nv)]
    )
    I = corner * xs ** 2 + _ideal(R, "a^2*b^2") * x2s
    J = MonomialIdeal.from_exponents(S, [(6,)])
    return fiber_product(I, J)


# -- helpers ------------------------------------------------------------------


def _equality_report(claim: str, params: dict, lhs: MonomialIdeal, rhs: MonomialIdeal,
                     ms: float, provenance: str) -> Report:
    return make_report(
        claim, params,
        computed={"equal": lhs == rhs, "lhsGens": len(lhs.gens), "rhsGens": len(rhs.gens)},
        expected={"equal": True},
        ms=ms, compare_keys=("equal",), provenance=provenance,
    )


def _containment_report(claim: str, params: dict, small: MonomialIdeal,
                        big: MonomialIdeal, ms: float, provenance: str) -> Report:
    return make_report(
        claim, params,
        computed={"contained": big.contains(small)},
        expected={"contained": True},
        ms=ms, compare_keys=("contained",), provenance=provenance,
    )


def _value_report(claim: str, params: dict, computed: dict, expected: dict,
                  ms: float, provenance: str) -> Report:
    return make_report(claim, params, computed, expected, ms,
                       compare_keys=tuple(expected), provenance=provenance)


# -- scenarios ----------------------------------------------------------------


def scenario_lemma_a3(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                      threads: int | None = None) -> list[Report]:
    char = 0 if characteristic is None else characteristic
    env = appendix_ideals(char)
    R, I, qq, H, K, L = env["ring"], env["I"], env["q"], env["H"], env["K"], env["L"]
    reports = []
    with Stopwatch() as sw:
        lhs, rhs = I ** 4, H * I ** 3
    reports.append(_equality_report("lemma-A3.i", {}, lhs, rhs, sw.ms, "lemma A.3(i)"))
    with Stopwatch() as sw:
        lhs = (I ** 3).colon(parse_monomial(R, "x*y*z"))
    reports.append(_equality_report("lemma-A3.ii", {}, lhs, qq ** 6, sw.ms, "lemma A.3(ii)"))
    with Stopwatch() as sw:
        lhs = (K ** 3).colon(parse_monomial(R, "x^2"))
    reports.append(_equality_report("lemma-A3.iii", {}, lhs, L ** 3, sw.ms, "lemma A.3(iii)"))
    with Stopwatch() as sw:
        x = _ideal(R, "x")
        lhs = (K ** 3).colon(parse_monomial(R, "x")) + x
        rhs = H ** 2 * L + x
    reports.append(_equality_report("lemma-A3.iv", {}, lhs, rhs, sw.ms, "lemma A.3(iv)"))
    for s in (1, 2, 3):
        with Stopwatch() as sw:
            small, big = qq ** (2 * s + 1), L ** s
        reports.append(
            _containment_report("lemma-A3.v", {"s": s}, small, big, sw.ms, "lemma A.3(v)")
        )
    return reports


def scenario_lemma_a4(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                      threads: int | None = None) -> list[Report]:
    char = 0 if characteristic is None else characteristic
    env = appendix_ideals(char)
    R, I, qq, H, V1, V2 = env["ring"], env["I"], env["q"], env["H"], env["V1"], env["V2"]
    x, y = _ideal(R, "x"), _ideal(R, "y")
    yz, xz = _ideal(R, "y", "z"), _ideal(R, "x", "z")
    abcd = _ideal(R, "a*b*c*d")
    I3 = I ** 3
    reports = []
    with Stopwatch() as sw:
        ok = V1.contains(qq ** 5)
    reports.append(make_report("lemma-A4.i", {}, {"contained": ok}, {"contained": True},
                               sw.ms, provenance="lemma A.4(i)"))
    with Stopwatch() as sw:
        lhs = (I3 + x).colon(parse_monomial(R, "y*z"))
        rhs = x + H * V1 + appendix_w(env, 0)
    reports.append(_equality_report("lemma-A4.ii", {}, lhs, rhs, sw.ms, "lemma A.4(ii)"))
    with Stopwatch() as sw:
        lhs = (I3 + y).colon(parse_monomial(R, "x*z"))
        rhs = y + H * V2 + H * abcd * xz
    reports.append(_equality_report("lemma-A4.iii", {}, lhs, rhs, sw.ms, "lemma A.4(iii)"))
    for s in (0, 1, 2, 3):
        Hs1 = H ** (s + 1)
        with Stopwatch() as sw:
            lhs = (H ** s * I3 + x).colon(parse_monomial(R, "y*z"))
            rhs = x + Hs1 * V1 + appendix_w(env, s)
        reports.append(_equality_report("lemma-A4.iv", {"s": s}, lhs, rhs, sw.ms, "lemma A.4(iv)"))
        with Stopwatch() as sw:
            B = Hs1 * abcd * yz
            lhs = Hs1 * V1 & B
        reports.append(_equality_report("lemma-A4.v", {"s": s}, lhs, qq * B, sw.ms, "lemma A.4(v)"))
        with Stopwatch() as sw:
            Ws = appendix_w(env, s)
            lhs = Hs1 * V1 & Ws
        reports.append(_equality_report("lemma-A4.vi", {"s": s}, lhs, qq * Ws, sw.ms, "lemma A.4(vi)"))
        with Stopwatch() as sw:
            B = Hs1 * abcd * yz
            C = _ideal(R, "t*c*d") * _ideal(R, "c^2", "d^2") ** (s + 2)
            Ws = appendix_w(env, s)
            mixed = abcd * yz * _ideal(R, "t") * _ideal(R, "c^2", "d^2") ** (s + 2)
            ok = (
                (B & C) == mixed
                and (qq * Ws).contains(B & C)
                and (B & (qq * Ws)) == qq * B
                and (C & (qq * Ws)) == qq * C
            )
        reports.append(make_report("lemma-A4.vii", {"s": s}, {"identities": ok},
                                   {"identities": True}, sw.ms, provenance="lemma A.4(vii)"))
    return reports


def scenario_lemma_a5(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                      threads: int | None = None) -> list[Report]:
    char = 0 if characteristic is None else characteristic
    env = appendix_ideals(char)
    H, qq = env["H"], env["q"]
    reports = []
    for s in (1, 2):
        Hs = H ** s
        for i in range(6):
            with Stopwatch() as sw:
                val = reg_of(Hs * qq ** i, char, caps, threads)
            reports.append(_value_report(
                "lemma-A5.i", {"s": s, "i": i},
                {"reg": val}, {"reg": max(2 * s + 3, 2 * s + i)},
                sw.ms, "lemma A.5(i)",
            ))
    return reports


def scenario_appendix_a1(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                         threads: int | None = None) -> list[Report]:
    """Desk slice of the special ideal: reg I^3 = 9, reg(m^s I^2) = s + 8.

    Runs over GF(32003) by default (the fast exact path) with a rational
    spot check at s = 0 guarding the substitution.
    """
    char = DEFAULT_PRIME if characteristic is None else characteristic
    env = appendix_ideals(char)
    R, I = env["ring"], env["I"]
    reports = []
    with Stopwatch() as sw:
        val = reg_of(I ** 3, char, caps, threads)
    reports.append(_value_report("thm-A.1-regI3", {"char": char}, {"reg": val}, {"reg": 9},
                                 sw.ms, "theorem A.1"))
    I2 = I ** 2
    for s in (0, 1, 2):
        with Stopwatch() as sw:
            shifted = maxideal_power(R, None, s) * I2
            val = reg_of(shifted, char, caps, threads)
        reports.append(_value_report("thm-A.1-regmsI2", {"s": s, "char": char},
                                     {"reg": val}, {"reg": s + 8}, sw.ms, "theorem A.1"))
    with Stopwatch() as sw:
        val_q = reg_of(I2, 0, caps, threads)
    reports.append(_value_report("thm-A.1-char-agreement", {"s": 0, "char": 0},
                                 {"reg": val_q}, {"reg": 8}, sw.ms, "theorem A.1"))
    return reports


def scenario_remark_55(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                       threads: int | None = None) -> list[Report]:
    char = 0 if characteristic is None else characteristic
    setup = remark_55_setup(char)
    I = setup.I_left
    R = setup.left
    reports = []
    with Stopwatch() as sw:
        vals = {
            "regI": reg_of(I, char, caps, threads),
            "regI2": reg_of(I ** 2, char, caps, threads),
            "regmI": reg_of(maxideal_power(R, None, 1) * I, char, caps, threads),
        }
    reports.append(_value_report("remark-5.5-values", {}, vals,
                                 {"regI": 8, "regI2": 8, "regmI": 9}, sw.ms, "remark 5.5"))
    with Stopwatch() as sw:
        r51 = check_reg_formula(setup, 2, char, caps, threads)
    reports.append(_value_report(
        "remark-5.5-regF2", {"s": 2},
        {"regF2": r51.computed["regFs"], "thm51": r51.computed["formula"],
         "thm51Pass": r51.passed},
        {"regF2": 10, "thm51": 10, "thm51Pass": True}, sw.ms, "remark 5.5",
    ))
    with Stopwatch() as sw:
        r52 = check_reg_formula_equigenerated(setup, 2, char, caps, threads)
    reports.append(_value_report(
        "remark-5.5-cor52-gap", {"s": 2},
        {"cor52": r52.computed["formula"], "regF2": r52.computed["regFs"],
         "equal": r52.passed},
        {"cor52": 9, "regF2": 10, "equal": False}, sw.ms,
        "remark 5.5 (inequality expected)",
    ))
    return reports


def scenario_remark_56(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                       threads: int | None = None) -> list[Report]:
    char = 0 if characteristic is None else characteristic
    I = remark_56_ideal(char)
    R = I.ring
    with Stopwatch() as sw:
        direct = reg_of(maxideal_power(R, None, 2) * I, char, caps, threads)
        rhs = max(reg_of(I, char, caps, threads), 2 + I.t0())
    return [_value_report(
        "remark-5.6", {},
        {"regm2I": direct, "naiveFormula": rhs, "strictlyBelow": direct < rhs},
        {"regm2I": 5, "naiveFormula": 6, "strictlyBelow": True},
        sw.ms, "remark 5.6",
    )]


def scenario_remark_59(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                       threads: int | None = None, n: int = 2) -> list[Report]:
    """Power regularity of the two-block family; full suite for small n,
    the non-monotone witness (reg I > reg I^2) for n >= 8."""
    char = 0 if characteristic is None else characteristic
    setup = remark_59_setup(n, char)
    I, R = setup.I_left, setup.left
    reports = []
    ab = MonomialIdeal.from_exponents(
        R, [tuple(1 if i == v else 0 for i in range(R.nvars)) for v in (0, 1)]
    )
    xs = MonomialIdeal.from_exponents(
        R, [tuple(1 if i == v else 0 for i in range(R.nvars)) for v in range(2, R.nvars)]
    )
    powers_checked = (2, 3) if n <= 3 else (2,)
    for s in powers_checked:
        with Stopwatch() as sw:
            ok = I ** s == ab ** (4 * s) * xs ** (2 * s)
        reports.append(make_report(
            "remark-5.9-claim1", {"n": n, "s": s}, {"equal": ok}, {"equal": True},
            sw.ms, provenance="remark 5.9(1)",
        ))
    with Stopwatch() as sw:
        val = reg_of(I, char, caps, threads)
    reports.append(_value_report("remark-5.9-regI", {"n": n}, {"reg": val},
                                 {"reg": n + 5}, sw.ms, "remark 5.9(2)"))
    reg_powers = {}
    for s in powers_checked:
        with Stopwatch() as sw:
            reg_powers[s] = reg_of(I ** s, char, caps, threads)
        reports.append(_value_report("remark-5.9-regIs", {"n": n, "s": s},
                                     {"reg": reg_powers[s]}, {"reg": 6 * s},
                                     sw.ms, "remark 5.9(2)"))
    if n >= 8:
        reports.append(_value_report(
            "remark-5.9-nonmonotone", {"n": n},
            {"regI": val, "regI2": reg_powers[2], "decreasing": val > reg_powers[2]},
            {"regI": n + 5, "regI2": 12, "decreasing": True},
            0.0, "power regularity need not increase",
        ))
    if n <= 3:
        for s in (1, 2, 3):
            with Stopwatch() as sw:
                direct = reg_of(setup.F ** s, char, caps, threads)
            reports.append(_value_report(
                "remark-5.9-regFs", {"n": n, "s": s},
                {"reg": direct}, {"reg": max(n + 4 + s, 6 * s)},
                sw.ms, "remark 5.9(3)",
            ))
    return reports


def scenario_lemma_54(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                      threads: int | None = None) -> list[Report]:
    """Regularity after multiplying by powers of the maximal ideal."""
    char = 0 if characteristic is None else characteristic
    reports = []
    R4 = Ring("Q", ("a", "b", "c", "d"), characteristic=char)
    H = _ideal(R4, "a^2", "b^2", "c^2", "d^2")
    R2 = Ring("P", ("x", "y"), characteristic=char)
    stable = _ideal(R2, "x^2", "x*y")
    r55 = remark_55_setup(char).I_left
    cases = [("square-powers", H), ("stable-pair", stable), ("mixed-degrees", r55)]
    for label, M in cases:
        ring = M.ring
        base = reg_of(M, char, caps, threads)
        for i in (1, 2):
            with Stopwatch() as sw:
                direct, general = reg_maxideal_power_formula(M, i, char, caps, threads)
            reports.append(_value_report(
                "lemma-5.4-general", {"ideal": label, "i": i},
                {"direct": direct, "formula": general},
                {"formula": direct}, sw.ms, "lemma 5.4(i)",
            ))
            if M.is_equigenerated():
                reports.append(_value_report(
                    "lemma-5.4-equigenerated", {"ideal": label, "i": i},
                    {"direct": direct, "formula": max(base, i + M.t0())},
                    {"formula": direct}, 0.0, "lemma 5.4(ii)",
                ))
        if M.is_equigenerated():
            threshold = base - M.t0()
            i = max(threshold, 1)
            with Stopwatch() as sw:
                shifted = maxideal_power(ring, None, i) * M
                linear = has_linear_resolution(shifted, char, caps, threads)
            reports.append(_value_report(
                "lemma-5.4-linear-threshold", {"ideal": label, "i": i},
                {"linear": linear}, {"linear": True}, sw.ms, "lemma 5.4(ii)",
            ))
    return reports


def scenario_thm_36(characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
                    threads: int | None = None) -> list[Report]:
    """Theorem 3.6 on three fiber products F = H + J.

    Each setup checks H & J = mJ, that F = H + J is a Betti splitting,
    reg F = max(reg I, reg J), and componentwise linearity at s = 1.
    """
    char = 0 if characteristic is None else characteristic
    reports = []
    pairs = []
    Ra = Ring("A1", ("x",), characteristic=char)
    Sa = Ring("B1", ("y",), characteristic=char)
    pairs.append((
        "principal-squares",
        fiber_product(_ideal(Ra, "x^2"), _ideal(Sa, "y^2")),
    ))
    Rb = Ring("A2", ("x", "y"), characteristic=char)
    Sb = Ring("B2", ("u",), characteristic=char)
    pairs.append((
        "stable-vs-cube",
        fiber_product(_ideal(Rb, "x^2", "x*y"), _ideal(Sb, "u^3")),
    ))
    pairs.append(("mixed-degrees", remark_55_setup(char)))
    for label, setup in pairs:
        with Stopwatch() as sw:
            meet_ok = (setup.H & setup.J) == setup.mm * setup.J
        reports.append(make_report(
            "thm-3.6-intersection", {"setup": label},
            {"equal": meet_ok}, {"equal": True}, sw.ms,
            provenance="theorem 3.6 step 1",
        ))
        rep = verify_betti_splitting(setup.F, setup.H, setup.J, char, caps, threads,
                                     claim="thm-3.6-splitting", params={"setup": label})
        reports.append(rep)
        with Stopwatch() as sw:
            direct = reg_of(setup.F, char, caps, threads)
            expected = max(
                reg_of(setup.I_left, char, caps, threads),
                reg_of(setup.J_right, char, caps, threads),
            )
        reports.append(_value_report(
            "prop-3.4-reg", {"setup": label},
            {"regF": direct}, {"regF": expected}, sw.ms, "proposition 3.4(ii)",
        ))
        reports.append(check_componentwise(setup, 1, char, caps, threads))
    return reports


SCENARIOS = {
    "appendix-A1": scenario_appendix_a1,
    "lemma-A3": scenario_lemma_a3,
    "lemma-A4": scenario_lemma_a4,
    "lemma-A5": scenario_lemma_a5,
    "remark-5.5": scenario_remark_55,
    "remark-5.6": scenario_remark_56,
    "remark-5.9": scenario_remark_59,
    "lemma-5.4": scenario_lemma_54,
    "thm-3.6-splitting": scenario_thm_36,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def run_scenario(name: str, characteristic: int | None = None,
                 caps: Caps = DEFAULT_CAPS, threads: int | None = None,
                 **params) -> list[Report]:
    """Run a named scenario; 'remark-5.9(8)' style names carry its parameter n.

    A parameter the scenario does not take, or an n in the name that
    disagrees with the one in ``params``, is a DomainError.
    """
    base = name
    if "(" in name and name.endswith(")"):
        base, _, arg = name[:-1].partition("(")
        try:
            n = int(arg)
        except ValueError:
            raise DomainError(
                f"scenario {name!r}: the parameter {arg!r} is not an integer"
            ) from None
        if params.setdefault("n", n) != n:
            raise DomainError(f"scenario {name!r}: the name's n = {n} disagrees with "
                              f"n = {params['n']}")
    if base not in SCENARIOS:
        raise DomainError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    unknown = sorted(set(params) - set(inspect.signature(SCENARIOS[base]).parameters))
    if unknown:
        raise DomainError(f"scenario {name!r} takes no parameter {', '.join(unknown)}")
    return SCENARIOS[base](characteristic=characteristic, caps=caps, threads=threads, **params)
