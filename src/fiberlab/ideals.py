"""Exact monomial-ideal arithmetic on minimal generating sets.

A ``MonomialIdeal`` stores its unique minimal monomial generating set as a
canonically sorted tuple of exponent vectors, so ideal equality is plain
tuple equality.  The zero ideal is the empty tuple; the unit ideal is the
single all-zero vector.  Every operation returns a minimal generating set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .core import Exponents, Monomial, Ring, canonical_order
from .errors import CapError, DomainError, RingMismatchError

_INT = np.int32


def _as_array(vectors, nvars: int) -> np.ndarray:
    arr = np.asarray(list(vectors), dtype=_INT)
    if arr.size == 0:
        return np.zeros((0, nvars), dtype=_INT)
    return arr.reshape(len(arr), nvars)


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    if len(arr) == 0:
        return arr
    return np.unique(arr, axis=0)


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Drop every row that is divisible by (componentwise >=) another row.

    Rows of equal total degree never divide one another unless equal, so
    after deduplication it is enough to sweep degree layers in increasing
    order, filtering each layer against everything kept so far.
    """
    arr = _unique_rows(arr)
    if len(arr) <= 1:
        return arr
    degrees = arr.sum(axis=1)
    kept: list[np.ndarray] = []
    kept_stack: np.ndarray | None = None
    for d in np.unique(degrees):
        layer = arr[degrees == d]
        if kept_stack is not None and len(kept_stack):
            # survive iff no kept row divides the candidate
            divisible = np.zeros(len(layer), dtype=bool)
            # chunk to bound the (layer x kept x nvars) intermediate
            step = max(1, 8_000_000 // (kept_stack.shape[0] * arr.shape[1] + 1))
            for lo in range(0, len(layer), step):
                part = layer[lo : lo + step]
                hit = (kept_stack[None, :, :] <= part[:, None, :]).all(axis=2).any(axis=1)
                divisible[lo : lo + step] = hit
            layer = layer[~divisible]
        if len(layer):
            kept.append(layer)
            kept_stack = np.concatenate(kept) if len(kept) > 1 else kept[0]
    return kept_stack if kept_stack is not None else arr[:0]


def _canonical_tuple(arr: np.ndarray) -> tuple[Exponents, ...]:
    return tuple(canonical_order(tuple(int(e) for e in row) for row in arr))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set."""

    ring: Ring
    gens: tuple[Exponents, ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "MonomialIdeal":
        return MonomialIdeal(ring, ())

    @staticmethod
    def unit(ring: Ring) -> "MonomialIdeal":
        return MonomialIdeal(ring, (ring.zero_exponents(),))

    @staticmethod
    def from_exponents(ring: Ring, vectors) -> "MonomialIdeal":
        arr = _as_array(vectors, ring.nvars)
        if arr.size and arr.min() < 0:
            raise DomainError("negative exponent in generator")
        return MonomialIdeal(ring, _canonical_tuple(_minimal_rows(arr)))

    @staticmethod
    def from_monomials(monomials) -> "MonomialIdeal":
        monomials = list(monomials)
        if not monomials:
            raise DomainError("cannot infer the ring of an empty generator list")
        ring = monomials[0].ring
        if any(m.ring != ring for m in monomials):
            raise RingMismatchError("generators live in different rings")
        return MonomialIdeal.from_exponents(ring, (m.exponents for m in monomials))

    # -- basic queries -------------------------------------------------

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.ring, g) for g in self.gens)

    def array(self) -> np.ndarray:
        return _as_array(self.gens, self.ring.nvars)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and sum(self.gens[0]) == 0

    def is_proper(self) -> bool:
        return not self.is_zero() and not self.is_unit()

    def _check_ring(self, other: "MonomialIdeal") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return ", ".join(str(m) for m in self.generators)

    # -- membership ----------------------------------------------------

    def member(self, m: Monomial | Exponents) -> bool:
        exps = m.exponents if isinstance(m, Monomial) else tuple(m)
        if isinstance(m, Monomial) and m.ring != self.ring:
            raise RingMismatchError("monomial lives in a different ring")
        return any(all(g[i] <= exps[i] for i in range(self.ring.nvars)) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        self._check_ring(other)
        if other.is_zero():
            return True
        if self.is_zero():
            return False
        a, b = self.array(), other.array()
        return bool((a[None, :, :] <= b[:, None, :]).all(axis=2).any(axis=1).all())

    def __le__(self, other: "MonomialIdeal") -> bool:
        return other.contains(self)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        stacked = np.concatenate([self.array(), other.array()])
        return MonomialIdeal(self.ring, _canonical_tuple(_minimal_rows(stacked)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.ring)
        a, b = self.array(), other.array()
        prods = (a[:, None, :] + b[None, :, :]).reshape(-1, self.ring.nvars)
        prods = _unique_rows(prods)
        # products of minimal sets over disjoint supports are already minimal
        if not (a.any(axis=0) & b.any(axis=0)).any():
            return MonomialIdeal(self.ring, _canonical_tuple(prods))
        return MonomialIdeal(self.ring, _canonical_tuple(_minimal_rows(prods)))

    def __pow__(self, s: int) -> "MonomialIdeal":
        if s < 0:
            raise DomainError("negative ideal power")
        result = MonomialIdeal.unit(self.ring)
        for _ in range(s):  # repeated products keep intermediates minimal
            result = result * self
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.ring)
        a, b = self.array(), other.array()
        joins = np.maximum(a[:, None, :], b[None, :, :]).reshape(-1, self.ring.nvars)
        return MonomialIdeal(self.ring, _canonical_tuple(_minimal_rows(joins)))

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self.intersect(other)

    def colon(self, other: "MonomialIdeal | Monomial") -> "MonomialIdeal":
        """Ideal quotient self : other, for a monomial or a nonzero ideal."""
        if isinstance(other, Monomial):
            if other.ring != self.ring:
                raise RingMismatchError("colon by a monomial from a different ring")
            if self.is_zero():
                return self
            m = np.asarray(other.exponents, dtype=_INT)
            quo = np.maximum(self.array() - m[None, :], 0)
            return MonomialIdeal(self.ring, _canonical_tuple(_minimal_rows(quo)))
        self._check_ring(other)
        if other.is_zero():
            raise DomainError("colon by the zero ideal")
        result: MonomialIdeal | None = None
        for g in other.generators:
            part = self.colon(g)
            result = part if result is None else result.intersect(part)
        assert result is not None
        return result

    # -- degree data -----------------------------------------------------

    def support(self) -> tuple[str, ...]:
        if self.is_zero():
            return ()
        used = self.array().any(axis=0)
        return tuple(v for v, u in zip(self.ring.variables, used) if u)

    def t0(self) -> int:
        """Maximal total degree of a minimal generator."""
        if self.is_zero():
            raise DomainError("t0 of the zero ideal")
        return max(sum(g) for g in self.gens)

    def indeg(self) -> int:
        """Minimal total degree of a minimal generator (the initial degree)."""
        if self.is_zero():
            raise DomainError("indeg of the zero ideal")
        return min(sum(g) for g in self.gens)

    def is_equigenerated(self) -> bool:
        return not self.is_zero() and self.t0() == self.indeg()


# -- free-standing operations matching the ideal algebra -----------------


def monomials_of_degree(ring: Ring, d: int, indices: tuple[int, ...] | None = None):
    """Yield exponent vectors of all degree-``d`` monomials in the given variables."""
    if indices is None:
        indices = tuple(range(ring.nvars))
    if d == 0:
        yield ring.zero_exponents()
        return
    for combo in itertools.combinations_with_replacement(indices, d):
        exps = [0] * ring.nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def maxideal_power(ring: Ring, block: str | None = None, s: int = 1) -> MonomialIdeal:
    """s-th power of the graded maximal ideal of a ring or of one block."""
    if s < 0:
        raise DomainError("negative power of the maximal ideal")
    if s == 0:
        return MonomialIdeal.unit(ring)
    if block is None:
        indices = tuple(range(ring.nvars))
    else:
        blk = ring.block(block)
        indices = tuple(range(blk.start, blk.stop))
    gens = list(monomials_of_degree(ring, s, indices))
    return MonomialIdeal(ring, _canonical_tuple(_as_array(gens, ring.nvars)))


def star_derivative(ideal: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by g/x over minimal generators g and variables x dividing g."""
    if ideal.is_zero():
        raise DomainError("star derivative of the zero ideal")
    out = []
    for g in ideal.gens:
        for i, e in enumerate(g):
            if e > 0:
                out.append(g[:i] + (e - 1,) + g[i + 1 :])
    if not out:  # unit ideal has no variable in its support
        return ideal
    return MonomialIdeal.from_exponents(ideal.ring, out)


def component_ideal(ideal: MonomialIdeal, d: int, caps: Caps = DEFAULT_CAPS) -> MonomialIdeal:
    """Ideal generated by every degree-``d`` monomial of ``ideal``."""
    if d < 0:
        raise DomainError("negative component degree")
    if d > caps.component_degree:
        raise CapError.over("component_degree", f"component degree {d} was asked for",
                            caps.component_degree)
    if ideal.is_zero():
        return ideal
    ring = ideal.ring
    out = []
    for g in ideal.gens:
        deg = sum(g)
        if deg > d:
            continue
        for filler in monomials_of_degree(ring, d - deg):
            out.append(tuple(a + b for a, b in zip(g, filler)))
    return MonomialIdeal.from_exponents(ring, out)


def tensor_embed(ideal: MonomialIdeal, target: Ring) -> MonomialIdeal:
    """Re-index an ideal over a factor ring into a tensor ring containing it as a block."""
    src = ideal.ring
    for b in target.blocks:
        if b.name == src.name and target.variables[b.start : b.stop] == src.variables:
            if ideal.is_zero():
                return MonomialIdeal.zero(target)
            gens = []
            for g in ideal.gens:
                vec = [0] * target.nvars
                vec[b.start : b.stop] = g
                gens.append(tuple(vec))
            return MonomialIdeal(target, tuple(canonical_order(gens)))
    raise DomainError(f"ring {src.name!r} is not a block of {target.name!r}")


def project_to_block(ideal: MonomialIdeal, block: str) -> MonomialIdeal:
    """Restrict an ideal supported inside one block back to a standalone ring."""
    blk = ideal.ring.block(block)
    subring = Ring(block, ideal.ring.variables[blk.start : blk.stop],
                   characteristic=ideal.ring.characteristic)
    for g in ideal.gens:
        if any(e > 0 for i, e in enumerate(g) if not (blk.start <= i < blk.stop)):
            raise DomainError("ideal is not supported inside the block")
    return MonomialIdeal(subring, tuple(g[blk.start : blk.stop] for g in ideal.gens))
