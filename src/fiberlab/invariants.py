"""Derived homological invariants: regularity, depth, linearity tests.

Everything here is read off coarse Betti tables: regularity is the top
j - i with a nonzero entry, projective dimension the top i, and depth
comes from the Auslander-Buchsbaum formula depth = nvars - pdim.  The
quotient ring R/A has the same table shifted one homological step, so its
invariants are the ideal's shifted by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import betti_table
from .config import DEFAULT_CAPS, Caps
from .errors import DomainError
from .ideals import MonomialIdeal, component_ideal, finite_length_reg, maxideal_power


@dataclass(frozen=True)
class Invariants:
    subject: MonomialIdeal
    characteristic: int
    reg: int
    pdim: int
    depth: int
    t0: int
    indeg: int

    @property
    def reg_quotient(self) -> int:
        return self.reg - 1

    @property
    def depth_quotient(self) -> int:
        return self.depth - 1


def reg_of(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> int:
    """Castelnuovo-Mumford regularity of a nonzero monomial ideal."""
    return betti_table(ideal, characteristic, caps, threads).regularity()


def invariants_of(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> Invariants:
    if not ideal.is_proper():
        raise DomainError("invariants are defined here only for proper nonzero ideals")
    table = betti_table(ideal, characteristic, caps, threads)
    pdim = table.max_index()
    return Invariants(
        subject=ideal,
        characteristic=table.characteristic,
        reg=table.regularity(),
        pdim=pdim,
        depth=ideal.ring.nvars - pdim,
        t0=ideal.t0(),
        indeg=ideal.indeg(),
    )


def has_linear_resolution(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> bool:
    """Generated in one degree d with regularity exactly d."""
    if ideal.is_zero():
        raise DomainError("linearity of the zero ideal")
    if not ideal.is_equigenerated():
        return False
    return reg_of(ideal, characteristic, caps, threads) == ideal.t0()


def is_componentwise_linear(
    ideal: MonomialIdeal,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> bool:
    """Every degree-d component ideal has a d-linear resolution.

    Components only need checking for d between the initial degree and the
    regularity: truncations at or above the regularity always have linear
    resolutions.
    """
    if ideal.is_zero():
        raise DomainError("componentwise linearity of the zero ideal")
    if ideal.is_unit():
        return True
    return _componentwise_linear(ideal, reg_of(ideal, characteristic, caps, threads),
                                 characteristic, caps, threads)


def _componentwise_linear(ideal: MonomialIdeal, reg: int, characteristic: int | None,
                          caps: Caps, threads: int | None) -> bool:
    """``is_componentwise_linear`` of a proper nonzero ideal of regularity ``reg``."""
    for d in range(ideal.indeg(), reg + 1):
        comp = component_ideal(ideal, d, caps)
        if comp.is_zero():
            continue
        if reg_of(comp, characteristic, caps, threads) != d:
            return False
    return True


def reg_maxideal_power_formula(
    ideal: MonomialIdeal,
    i: int,
    characteristic: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    threads: int | None = None,
) -> tuple[int, int]:
    """(direct reg(m^i * A), max{reg A, finite_length_reg(A, m^i A) + 1}).

    The two agree whenever A has positive depth, which holds for every
    nonzero ideal of a polynomial ring.
    """
    if i < 1:
        raise DomainError("power must be at least 1")
    mm = maxideal_power(ideal.ring, None, i)
    shifted = mm * ideal
    direct = reg_of(shifted, characteristic, caps, threads)
    top = finite_length_reg(ideal, shifted)
    base = reg_of(ideal, characteristic, caps, threads)
    formula = base if top is None else max(base, top + 1)
    return direct, formula
