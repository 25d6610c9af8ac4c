"""Fiber products of ideals, their power filtration, and claim checks.

For ideals I inside m^2 and J inside n^2 (m, n the graded maximal ideals
of two polynomial rings R, S) the fiber product of R/I and S/J is
presented by F = I + J + m*n inside the tensor ring T.  The powers of F
carry a filtration H^s = G_0 <= G_1 <= ... <= G_s = F^s with
G_t = G_(t-1) + (mn)^(s-t) J^t whose steps are Betti splittings; the
regularity, depth, and componentwise-linearity checks in this module all
ride on that structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import betti_table, tor_vanishing
from .config import DEFAULT_CAPS, Caps
from .core import Ring, tensor_ring
from .errors import DomainError, RingMismatchError
from .ideals import MonomialIdeal, maxideal_power, star_derivative, tensor_embed
from .invariants import invariants_of, is_componentwise_linear, reg_of
from .reports import Report, Stopwatch, make_report

INFINITE_DEPTH = None  # depth of the zero module: dropped from minima


def _at_least(name: str, value: int, least: int) -> None:
    """A claim's parameter below its range is a usage error, never a vacuous verdict."""
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class FiberSetup:
    """Tensor ring with both factors' data and the fiber product ideal."""

    T: Ring
    left: Ring
    right: Ring
    I_left: MonomialIdeal   # over the left factor ring
    J_right: MonomialIdeal  # over the right factor ring
    I: MonomialIdeal        # embedded in T
    J: MonomialIdeal
    mm: MonomialIdeal       # maximal ideal of the left block, in T
    nn: MonomialIdeal
    F: MonomialIdeal        # I + J + mm*nn
    H: MonomialIdeal        # I + mm*nn


def fiber_product(left_ideal: MonomialIdeal, right_ideal: MonomialIdeal) -> FiberSetup:
    """Build the fiber product setup of two ideals over disjoint rings."""
    R, S = left_ideal.ring, right_ideal.ring
    if R.characteristic != S.characteristic:
        raise RingMismatchError("factor rings have different characteristics")
    for ideal, ring in ((left_ideal, R), (right_ideal, S)):
        if not ideal.is_zero() and ideal.indeg() < 2:
            raise DomainError(
                f"ideal over {ring.name!r} must sit inside the square of the "
                "maximal ideal (no generators of degree < 2)"
            )
    T = tensor_ring(f"{R.name}x{S.name}", R, S)
    I = tensor_embed(left_ideal, T)
    J = tensor_embed(right_ideal, T)
    mm = maxideal_power(T, R.name, 1)
    nn = maxideal_power(T, S.name, 1)
    mixed = mm * nn
    return FiberSetup(
        T=T, left=R, right=S,
        I_left=left_ideal, J_right=right_ideal,
        I=I, J=J, mm=mm, nn=nn,
        F=I + J + mixed, H=I + mixed,
    )


@dataclass(frozen=True)
class Filtration:
    """The chain G_0 = H^s <= ... <= G_s = F^s and its step identities.

    ``intersection_ok`` and ``sum_ok`` say whether each identity holds.
    They hold for every fiber product, so a False is a failing claim for
    the caller to report, not an exception.
    """

    setup: FiberSetup
    s: int
    stages: tuple[MonomialIdeal, ...]           # G_0 .. G_s
    added: tuple[MonomialIdeal, ...]            # (mn)^(s-t) J^t for t = 1..s
    intersections: tuple[MonomialIdeal, ...]    # G_(t-1) & added_t
    intersection_ok: tuple[bool, ...]           # == m^(s-t+1) n^(s-t) J^t
    sum_ok: bool                                # G_s == F^s


def filtration(setup: FiberSetup, s: int) -> Filtration:
    """The filtration of F^s and its step identities.

    J^t is one product with J per step, and the powers of m and n are
    read off ``maxideal_power``, with (mn)^k = m^k n^k.
    """
    if s < 1:
        raise DomainError("filtration needs s >= 1")
    T, left, right = setup.T, setup.left.name, setup.right.name
    stages = [setup.H ** s]
    added, inters, flags = [], [], []
    power = MonomialIdeal.unit(T)  # J^t
    for t in range(1, s + 1):
        power = power * setup.J
        k = s - t
        n_k = maxideal_power(T, right, k)
        piece = maxideal_power(T, left, k) * n_k * power
        added.append(piece)
        meet = stages[-1] & piece
        inters.append(meet)
        expected = maxideal_power(T, left, k + 1) * n_k * power
        flags.append(meet == expected)
        stages.append(stages[-1] + piece)
    sum_ok = stages[-1] == setup.F ** s
    return Filtration(
        setup, s, tuple(stages), tuple(added), tuple(inters), tuple(flags), sum_ok
    )


# -- Betti splittings ---------------------------------------------------------


def verify_betti_splitting(
    total: MonomialIdeal,
    part_a: MonomialIdeal,
    part_b: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
    claim: str = "betti-splitting",
    params: dict | None = None,
) -> Report:
    """Check beta_i,b(P) = beta_i,b(A) + beta_i,b(B) + beta_(i-1),b(A&B).

    ``threads`` is accepted and ignored: every walk runs in the calling process.
    """
    if total != part_a + part_b:
        raise DomainError("decomposition does not sum to the total ideal")
    with Stopwatch() as sw:
        meet = part_a & part_b
        tables = {}
        for key, ideal in (("P", total), ("A", part_a), ("B", part_b), ("C", meet)):
            tables[key] = (
                {} if ideal.is_zero()
                else betti_table(ideal, characteristic, caps).multigraded()
            )
        mismatches = []
        keys = set(tables["P"]) | set(tables["A"]) | set(tables["B"])
        keys |= {(i + 1, b) for i, b in tables["C"]}
        for i, b in keys:
            lhs = tables["P"].get((i, b), 0)
            rhs = (
                tables["A"].get((i, b), 0)
                + tables["B"].get((i, b), 0)
                + tables["C"].get((i - 1, b), 0)
            )
            if lhs != rhs:
                mismatches.append({"i": i, "b": list(b), "total": lhs, "split": rhs})
        coarse_p: dict[int, int] = {}
        for (i, _), d in tables["P"].items():
            coarse_p[i] = coarse_p.get(i, 0) + d
    return make_report(
        claim,
        params or {},
        computed={
            "mismatches": len(mismatches),
            "firstMismatches": sorted(
                mismatches, key=lambda m: (m["i"], m["b"])
            )[:5],
            "bettiTotals": [coarse_p.get(i, 0) for i in range(max(coarse_p, default=0) + 1)],
        },
        expected={"mismatches": 0},
        ms=sw.ms,
    )


def verify_tor_vanishing_lemma(
    ideal: MonomialIdeal,
    s: int,
    mode: str = "certificate",
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> Report:
    """Tor-vanishing of m^(s-t) I^t -> m^(s-t+1) I^(t-1) for t = 1..s.

    Step t maps C_t = m^(s-t) I^t into C_(t-1), so the chain C_0, ..., C_s
    is built once, one product each after the powers of I: 2s + 1 products
    in all.  Certificate mode checks the star-derivative containment
    d*(C_t) <= C_(t-1), which implies Tor-vanishing for monomial ideals;
    exact mode decides every induced Tor map with ``tor_vanishing``, on the
    lattice engine: under the ``lattice`` cap, it walks each step's small
    ideal C_t.
    """
    if ideal.is_zero() or ideal.indeg() < 2:
        raise DomainError("lemma requires a nonzero ideal inside the maximal ideal squared")
    if mode not in ("certificate", "exact"):
        raise DomainError(f"unknown mode {mode!r}")
    _at_least("s", s, 1)
    ring = ideal.ring
    results = {}
    with Stopwatch() as sw:
        powers = [MonomialIdeal.unit(ring)]
        for t in range(1, s + 1):
            powers.append(powers[t - 1] * ideal)
        chain = [maxideal_power(ring, None, s - t) * powers[t] for t in range(s + 1)]
        for t in range(1, s + 1):
            small, big = chain[t], chain[t - 1]
            if mode == "certificate":
                ok = big.contains(star_derivative(small))
            else:
                ok, _ = tor_vanishing(small, big, characteristic, caps=caps)
            results[f"t={t}"] = ok
    return make_report(
        f"tor-vanishing-{mode}",
        {"s": s, "ideal": str(ideal)},
        computed={"allVanishing": all(results.values()), "perStep": results},
        expected={"allVanishing": True},
        ms=sw.ms,
        provenance="lemma 4.1",
    )


# -- regularity / depth / linearity checks -----------------------------------


def _depth(ideal: MonomialIdeal, characteristic, caps):
    if ideal.is_zero():
        return INFINITE_DEPTH
    return invariants_of(ideal, characteristic, caps=caps).depth


def _min_depth(*values: int | None) -> int:
    finite = [v for v in values if v is not None]
    return min(finite)


def reg_power_formula_terms(
    setup: FiberSetup, s: int, characteristic: int | None, caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Right-hand sides of the power regularity formulas.

    The general form takes the maximum of reg(m^(s-i) I^i) + s - i over
    both factors and i = 1..s; a factor that is the zero ideal contributes
    only the pure mixed-power term reg((mn)^s) = 2s.  The equigenerated
    form replaces reg(m^(s-i) I^i) by reg(I^i).
    """
    _at_least("s", s, 1)
    terms = []
    eq_terms = []
    equigenerated = True
    nonzero_seen = False
    for factor_ideal, ring in ((setup.I_left, setup.left), (setup.J_right, setup.right)):
        if factor_ideal.is_zero():
            terms.append(2 * s)
            eq_terms.append(2 * s)
            continue
        nonzero_seen = True
        equigenerated = equigenerated and factor_ideal.is_equigenerated()
        power = MonomialIdeal.unit(ring)
        for i in range(1, s + 1):
            power = power * factor_ideal
            reg_power = reg_of(power, characteristic, caps)
            eq_terms.append(reg_power + s - i)
            reg_shifted = reg_power  # at i = s, m^0 * I^s is I^s
            if i < s:
                shifted = maxideal_power(ring, None, s - i) * power
                reg_shifted = reg_of(shifted, characteristic, caps)
            terms.append(reg_shifted + s - i)
    return {
        "general": max(terms),
        "equigenerated": max(eq_terms),
        "bothEquigenerated": equigenerated and nonzero_seen,
    }


def _reg_and_formula_terms(setup: FiberSetup, s: int, characteristic: int | None,
                           caps: Caps) -> tuple[int, dict]:
    """reg(F^s) and ``reg_power_formula_terms``: what Theorem 5.1 and Corollary 5.2 compare."""
    _at_least("s", s, 1)
    return (reg_of(setup.F ** s, characteristic, caps),
            reg_power_formula_terms(setup, s, characteristic, caps))


def check_reg_formula(
    setup: FiberSetup, s: int, characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS, threads: int | None = None,
) -> Report:
    """Direct reg F^s against the general power regularity formula.

    ``threads`` is accepted and ignored: every walk runs in the calling process.
    """
    with Stopwatch() as sw:
        direct, rhs = _reg_and_formula_terms(setup, s, characteristic, caps)
        computed = {"regFs": direct, "formula": rhs["general"]}
        expected = {"regFs": rhs["general"]}
        if rhs["bothEquigenerated"]:
            computed["equigeneratedFormula"] = rhs["equigenerated"]
            expected["equigeneratedFormula"] = direct
    return make_report(
        "thm-5.1", {"s": s}, computed, expected, sw.ms,
        provenance="theorem 5.1",
    )


def check_reg_formula_equigenerated(
    setup: FiberSetup, s: int, characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS, threads: int | None = None,
) -> Report:
    """Equigenerated shortcut reg F^s = max(reg I^i + s - i, reg J^i + s - i).

    This equality can genuinely fail when a factor is not equigenerated;
    the verdict reports whether it held.  ``threads`` is accepted and ignored:
    every walk runs in the calling process.
    """
    with Stopwatch() as sw:
        direct, rhs = _reg_and_formula_terms(setup, s, characteristic, caps)
    return make_report(
        "cor-5.2", {"s": s},
        computed={"regFs": direct, "formula": rhs["equigenerated"]},
        expected={"formula": direct},
        ms=sw.ms,
        provenance="corollary 5.2",
    )


def check_depth_formula(
    setup: FiberSetup, s: int, characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS, threads: int | None = None,
) -> Report:
    """Depth of F^s: the fiber-product formula at s = 1, depth 1 for s >= 2.

    ``threads`` is accepted and ignored: every walk runs in the calling process.
    """
    _at_least("s", s, 1)
    both_zero = setup.I_left.is_zero() and setup.J_right.is_zero()
    with Stopwatch() as sw:
        fs = setup.F ** s
        inv = invariants_of(fs, characteristic, caps=caps)
        if s == 1:
            depth_i = _depth(setup.I_left, characteristic, caps)
            depth_j = _depth(setup.J_right, characteristic, caps)
            expected_depth = _min_depth(2, depth_i, depth_j)
            quotient_rhs = _min_depth(
                1,
                setup.left.nvars if setup.I_left.is_zero()
                else depth_i - 1,
                setup.right.nvars if setup.J_right.is_zero()
                else depth_j - 1,
            )
            computed = {"depthF": inv.depth, "depthQuotient": inv.depth_quotient}
            expected = {"depthF": expected_depth, "depthQuotient": quotient_rhs}
            claim = "prop-3.4"
        elif both_zero:
            # excluded from the depth-1 statement: F = mn has depth 2
            computed = {"depthFs": inv.depth}
            expected = {"depthFs": 2}
            claim = "thm-6.1"
        else:
            computed = {"depthFs": inv.depth, "depthQuotient": inv.depth_quotient}
            expected = {"depthFs": 1, "depthQuotient": 0}
            claim = "thm-6.1"
    return make_report(claim, {"s": s}, computed, expected, sw.ms,
                       provenance="proposition 3.4(i)" if claim == "prop-3.4" else "theorem 6.1")


def check_componentwise(
    setup: FiberSetup, s: int, characteristic: int | None = None, caps: Caps = DEFAULT_CAPS,
) -> Report:
    """Componentwise linearity transfers between F^i and the pair (I^i, J^i).

    For each i up to s: all of F^1..F^i are componentwise linear iff all of
    I^1..I^i and J^1..J^i are.  Zero factors are skipped (vacuously linear).
    """
    _at_least("s", s, 1)
    with Stopwatch() as sw:
        flags = {}
        ok = True
        factor_lin: list[bool] = []
        fiber_lin: list[bool] = []
        for i in range(1, s + 1):
            lin_i = True
            for factor_ideal in (setup.I_left, setup.J_right):
                if factor_ideal.is_zero():
                    continue
                lin_i = lin_i and is_componentwise_linear(
                    factor_ideal ** i, characteristic, caps
                )
            factor_lin.append(lin_i)
            fiber_lin.append(
                is_componentwise_linear(setup.F ** i, characteristic, caps)
            )
            lhs = all(fiber_lin)
            rhs = all(factor_lin)
            flags[f"i={i}"] = {"fiber": lhs, "factors": rhs}
            ok = ok and (lhs == rhs)
    return make_report(
        "cor-7.2", {"s": s},
        computed={"biconditional": ok, "perPower": flags},
        expected={"biconditional": True},
        ms=sw.ms,
        provenance="corollary 7.2",
    )


def check_reg_increasing(
    setup: FiberSetup, s_cap: int, characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS, claim: str = "cor-8.1",
) -> Report:
    """reg F^s strictly increases for s = 1..s_cap."""
    _at_least("the power bound s_cap", s_cap, 2)
    with Stopwatch() as sw:
        regs = []
        power = MonomialIdeal.unit(setup.T)
        for _ in range(s_cap):
            power = power * setup.F
            regs.append(reg_of(power, characteristic, caps))
        increasing = all(a < b for a, b in zip(regs, regs[1:]))
    return make_report(
        claim, {"sCap": s_cap},
        computed={"regs": regs, "strictlyIncreasing": increasing},
        expected={"strictlyIncreasing": True},
        ms=sw.ms,
        provenance=claim.replace("cor-", "corollary ", 1),
    )
