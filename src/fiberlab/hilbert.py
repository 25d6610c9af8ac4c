"""Graded dimension counting and finite-length quotient regularity.

``hilbert_function`` counts degree-d monomials inside an ideal by a
variable-splitting recursion (the production path, robust when there are
many generators) that finishes small cases by inclusion-exclusion over
generator subsets.  ``hilbert_inclusion_exclusion`` runs inclusion-exclusion
alone; the test suite holds both to agreement with brute-force enumeration.
"""

from __future__ import annotations

from math import comb

from .config import DEFAULT_CAPS, Caps
from .core import Exponents
from .errors import CapError, DomainError
from .ideals import MonomialIdeal

_IE_BASE = 10  # below this many generators, finish with inclusion-exclusion


def _quotient_count_ie(gens: tuple[Exponents, ...], nvars: int, d: int) -> int:
    """Degree-d monomials outside the ideal, by inclusion-exclusion."""
    total = comb(d + nvars - 1, nvars - 1)

    def rec(start: int, lcm: Exponents, deg: int, sign: int) -> int:
        acc = 0
        for j in range(start, len(gens)):
            new = tuple(max(a, b) for a, b in zip(lcm, gens[j]))
            nd = sum(new)
            if nd > d:  # lcm degrees only grow along a subset chain
                continue
            acc += sign * comb(d - nd + nvars - 1, nvars - 1)
            acc += rec(j + 1, new, nd, -sign)
        return acc

    zero = (0,) * nvars
    return total - rec(0, zero, 0, 1)


class _QuotientCounter:
    """Memoized variable-splitting count of monomials outside an ideal."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.memo: dict[tuple, int] = {}

    def count(self, gens: tuple[Exponents, ...], d: int) -> int:
        if d < 0:
            return 0
        if not gens:
            return comb(d + self.nvars - 1, self.nvars - 1)
        if sum(gens[0]) == 0 or any(sum(g) == 0 for g in gens):
            return 0  # unit ideal
        if len(gens) <= _IE_BASE:
            key = (gens, d)
            hit = self.memo.get(key)
            if hit is None:
                hit = _quotient_count_ie(gens, self.nvars, d)
                self.memo[key] = hit
            return hit
        key = (gens, d)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # pivot on the variable most used by non-linear generators; pivoting
        # on a variable that is itself a generator would make no progress
        weights = [0] * self.nvars
        for g in gens:
            if sum(g) >= 2:
                for i, e in enumerate(g):
                    weights[i] += e
        if not any(weights):
            # every generator is a single variable; count monomials avoiding them
            free = self.nvars - len(gens)
            if free == 0:
                return 1 if d == 0 else 0
            return comb(d + free - 1, free - 1)
        pivot = max(range(self.nvars), key=lambda i: (weights[i], -i))
        # monomials with pivot exponent 0: kill every generator using the pivot
        e_pivot = tuple(1 if i == pivot else 0 for i in range(self.nvars))
        without = tuple(sorted(g for g in gens if g[pivot] == 0)) + (e_pivot,)
        without = _minimal(without)
        # monomials divisible by the pivot: shift by one in the colon ideal
        colon = _minimal(
            tuple(
                sorted(
                    g[:pivot] + (max(g[pivot] - 1, 0),) + g[pivot + 1 :]
                    for g in gens
                )
            )
        )
        result = self.count(without, d) + self.count(colon, d - 1)
        self.memo[key] = result
        return result


def _minimal(gens: tuple[Exponents, ...]) -> tuple[Exponents, ...]:
    out: list[Exponents] = []
    ordered = sorted(set(gens), key=sum)
    for g in ordered:
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return tuple(sorted(out))


def hilbert_function(
    ideal: MonomialIdeal, d: int, caps: Caps = DEFAULT_CAPS
) -> int:
    """Exact count of degree-``d`` monomials lying in the ideal."""
    if d < 0:
        raise DomainError("negative degree")
    if d > caps.hilbert_degree:
        raise CapError.over("hilbert_degree", f"Hilbert function degree {d} was asked for",
                            caps.hilbert_degree)
    n = ideal.ring.nvars
    counter = _QuotientCounter(n)
    return comb(d + n - 1, n - 1) - counter.count(tuple(sorted(ideal.gens)), d)


def hilbert_inclusion_exclusion(ideal: MonomialIdeal, d: int) -> int:
    """Inclusion-exclusion path (cross-check; exponential in generators)."""
    if d < 0:
        raise DomainError("negative degree")
    n = ideal.ring.nvars
    return comb(d + n - 1, n - 1) - _quotient_count_ie(tuple(sorted(ideal.gens)), n, d)


def finite_length_reg(
    big: MonomialIdeal, small: MonomialIdeal, caps: Caps = DEFAULT_CAPS
) -> int | None:
    """Top degree where the quotient big/small is nonzero.

    Requires small to be contained in big with a finite-length quotient;
    the quotient's regularity is then its top nonzero degree.  Returns
    ``None`` for the empty quotient (equal ideals).  The finite-length
    check is certified: for monomial ideals the quotient can only be
    nonzero in degrees at most ``|join(gens(small))| - nvars``, and once
    the two Hilbert functions agree at one degree past both generating
    degrees they agree forever after.
    """
    big._check_ring(small)
    if not big.contains(small):
        raise DomainError("second ideal is not contained in the first")
    if big == small:
        return None
    if small.is_zero():
        raise DomainError("quotient by the zero ideal has infinite length")
    n = big.ring.nvars
    join = [0] * n
    for g in small.gens:
        for i, e in enumerate(g):
            join[i] = max(join[i], e)
    bound = max(big.t0(), small.t0(), sum(join) - n + 1)
    if bound > caps.hilbert_degree:
        raise CapError.over("hilbert_degree", f"the finite-length test reached degree {bound}",
                            caps.hilbert_degree)
    if hilbert_function(big, bound, caps) != hilbert_function(small, bound, caps):
        raise DomainError("quotient is not of finite length")
    top = None
    for d in range(big.indeg(), bound):
        if hilbert_function(big, d, caps) != hilbert_function(small, d, caps):
            top = d
    if top is None:
        raise DomainError("ideals differ but no degree difference found")
    return top
