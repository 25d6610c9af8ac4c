"""Exact monomial-ideal arithmetic on minimal generating sets.

A ``MonomialIdeal`` stores its unique minimal monomial generating set as a
canonically sorted tuple of exponent vectors, so ideal equality is plain
tuple equality.  The zero ideal is the empty tuple; the unit ideal is the
single all-zero vector.  Every operation returns a minimal generating set.
The canonical order is total degree first, then lex, both descending, so
x^2 precedes x*y precedes y^2 precedes x.  ``_minimal_rows`` fixes it on
every result, and ``_canonical_rows`` on rows already distinct and minimal.

Exponents are at most ``EXPONENT_LIMIT`` = 2^31 - 1, a fixed limit, not a
``FIBERLAB_CAPS`` cap: ``from_exponents`` and products raise ``DomainError``
past it, so int32 rows never wrap and a packed field fits in one word.
Bulk work, here and in ``betti``, runs on rows packed by ``_Packing`` into
int64 words: ``_unique_rows`` sorts one key per row, and ``_divisible``
marks the rows that some generator divides.  ``component_ideal`` refuses,
with ``CapError``, to enumerate more than ``COMPONENT_LIMIT`` = 2^22
generators, another fixed limit: it keeps the enumeration inside memory.
Products and intersections, and so powers and colons by an ideal, lay out
one row per pair of generators; past ``PAIRWISE_LIMIT`` = 2^28 cells that
layout is refused with ``CapError`` too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .core import Exponents, Monomial, Ring, format_monomial
from .errors import CapError, DomainError, RingMismatchError

_INT = np.int32
EXPONENT_LIMIT = 2**31 - 1
COMPONENT_LIMIT = 1 << 22
# cells of one pairwise layout: 2^28 int32 cells take 1 GiB.  The largest layout of the
# benchmark, scenarios and acceptance criteria has 580,720 cells; the last product of
# maxideal(R)^26 in 8 variables, about 2.2 * 10^8, still answers under a 3 GB address space
PAIRWISE_LIMIT = 1 << 28


def _check_exponent(top: int) -> None:
    if top > EXPONENT_LIMIT:
        raise DomainError(f"exponent {top} is over the fixed limit of 2^31 - 1 "
                          "(not a FIBERLAB_CAPS cap; it cannot be raised)")


def _pairwise_rows(op: np.ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op`` of every row of ``a`` with every row of ``b``, row-major by ``a``."""
    cells = len(a) * len(b) * a.shape[1]
    if cells > PAIRWISE_LIMIT:
        raise CapError(f"pairing {len(a)} with {len(b)} generators in {a.shape[1]} variables "
                       f"would lay out {cells} cells, over the fixed limit of {PAIRWISE_LIMIT} "
                       "(not a FIBERLAB_CAPS cap; it cannot be raised)")
    return op(a[:, None, :], b[None, :, :]).reshape(-1, a.shape[1])


def _as_array(vectors, nvars: int) -> np.ndarray:
    vectors = list(vectors)
    return np.asarray(vectors, dtype=_INT).reshape(len(vectors), nvars)


# -- packed exponent rows ------------------------------------------------------


class _Packing:
    """Exponent vectors packed into int64 words, one bit field per variable.

    Every field has a spare guard bit above it, so a single subtraction
    compares all fields of a word at once without borrows crossing fields:
    in ``(a | guard) - b`` a field keeps its guard bit iff a_v >= b_v.  Joins
    and divisibility tests then cost a few word operations per pair.
    """

    def __init__(self, maxexp: np.ndarray):
        self.ncols = len(maxexp)
        self.fields = []  # (column, word, shift, width) of every column that is not 0
        word = used = 0
        for col, e in enumerate(maxexp):
            w = int(e).bit_length()
            if w:
                if used + w + 1 > 63:
                    word, used = word + 1, 0
                self.fields.append((col, word, used, w))
                used += w + 1
        self.nwords = word + 1
        self.guard = np.zeros(self.nwords, dtype=np.int64)
        by_width: dict[int, np.ndarray] = {}
        for _, word, shift, w in self.fields:
            self.guard[word] |= 1 << (shift + w)
            by_width.setdefault(w, np.zeros(self.nwords, dtype=np.int64))[word] |= 1 << (shift + w)
        self.by_width = sorted(by_width.items())

    def pack(self, arr: np.ndarray) -> np.ndarray:
        out = np.zeros((len(arr), self.nwords), dtype=np.int64)
        for col, word, shift, _ in self.fields:
            out[:, word] |= arr[:, col].astype(np.int64) << shift
        return out

    def unpack(self, words: np.ndarray) -> np.ndarray:
        out = np.zeros((len(words), self.ncols), dtype=_INT)
        for col, word, shift, w in self.fields:
            out[:, col] = (words[:, word] >> shift) & ((1 << w) - 1)
        return out

    def geq(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Guard bits of the fields where a_v >= b_v."""
        out = (a | self.guard) - b
        out &= self.guard
        return out

    def join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fieldwise maximum of two broadcastable word arrays."""
        ge = self.geq(a, b)
        spread = np.zeros_like(ge)
        for w, guards in self.by_width:  # guard bit -> the w value bits below it
            bits = ge & guards
            bits -= bits >> w
            spread |= bits
        out = a & spread
        np.invert(spread, out=spread)
        spread &= b
        out |= spread
        return out

    def divides(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a_v <= b_v in every field, reduced over the last (word) axis."""
        return (self.geq(b, a) == self.guard).all(axis=-1)


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of packed words."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (sorting beats NumPy's hashed ``unique`` here)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows, in the order of their packed keys."""
    if len(arr) <= 1:
        return arr
    packing = _Packing(arr.max(axis=0))
    keys = _sorted_unique(_row_keys(packing.pack(arr)))
    return packing.unpack(keys.view(np.int64).reshape(len(keys), packing.nwords))


def _divisible(gens: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """True where some row of ``gens`` divides (is componentwise <=) the row of ``rows``."""
    if len(gens) == 0 or len(rows) == 0:
        return np.zeros(len(rows), dtype=bool)
    packing = _Packing(np.maximum(gens.max(axis=0), rows.max(axis=0)))
    packed_gens, packed_rows = packing.pack(gens)[None, :, :], packing.pack(rows)
    out = np.empty(len(rows), dtype=bool)
    step = max(1, 1_000_000 // len(gens))  # bounds the (rows x gens x words) intermediate
    for lo in range(0, len(rows), step):
        part = packed_rows[lo : lo + step, None, :]
        out[lo : lo + step] = packing.divides(packed_gens, part).any(axis=1)
    return out


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Distinct rows in canonical order: total degree, then lex, both descending."""
    if len(arr) <= 1:
        return arr
    return arr[np.lexsort((*arr.T[::-1], arr.sum(axis=1)))[::-1]]


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """The rows no other row divides (is componentwise <=), in canonical order.

    Rows of equal total degree never divide one another unless equal, so
    after deduplication it is enough to sweep degree layers in increasing
    order, filtering each layer against everything kept so far.
    """
    arr = _canonical_rows(_unique_rows(arr))
    degrees = arr.sum(axis=1)
    keep = np.ones(len(arr), dtype=bool)
    bounds = [0, *(np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist()]
    for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):  # layers above the lowest, upwards
        keep[lo:hi] = ~_divisible(arr[hi:][keep[hi:]], arr[lo:hi])
    return arr[keep]


def _canonical_tuple(arr: np.ndarray) -> tuple[Exponents, ...]:
    return tuple(map(tuple, arr.tolist()))


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
        vectors = list(vectors)
        exponents = [int(e) for v in vectors for e in v]  # checked before the int32 conversion
        if min(exponents, default=0) < 0:
            raise DomainError("negative exponent in generator")
        _check_exponent(max(exponents, default=0))
        arr = _as_array(vectors, ring.nvars)
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
        return ", ".join(format_monomial(self.ring.variables, g) for g in self.gens)

    # -- membership ----------------------------------------------------

    def member(self, m: Monomial | Exponents) -> bool:
        exps = m.exponents if isinstance(m, Monomial) else tuple(m)
        if isinstance(m, Monomial) and m.ring != self.ring:
            raise RingMismatchError("monomial lives in a different ring")
        return any(all(g[i] <= exps[i] for i in range(self.ring.nvars)) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        self._check_ring(other)
        return bool(_divisible(self.array(), other.array()).all())

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
        _check_exponent(int((a.max(axis=0).astype(np.int64) + b.max(axis=0)).max()))
        prods = _pairwise_rows(np.add, a, b)
        # products of minimal sets over disjoint supports are distinct and minimal
        if (a.any(axis=0) & b.any(axis=0)).any():
            prods = _minimal_rows(prods)
        else:
            prods = _canonical_rows(prods)
        return MonomialIdeal(self.ring, _canonical_tuple(prods))

    def __pow__(self, s: int) -> "MonomialIdeal":
        if s < 0:
            raise DomainError("negative ideal power")
        if self.is_zero() and s:
            return self
        if len(self.gens) == 1:  # (g)^s = (g^s), the unit ideal included
            _check_exponent(s * max(self.gens[0]))
            return MonomialIdeal(self.ring, (tuple(s * e for e in self.gens[0]),))
        # two or more generators: I^s has at least s + 1 of them
        result = MonomialIdeal.unit(self.ring)
        for _ in range(s):  # repeated products keep intermediates minimal
            result = result * self
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.ring)
        a, b = self.array(), other.array()
        joins = _pairwise_rows(np.maximum, a, b)
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
            # self's exponents are within the limit: a larger one of m clears its column alike
            m = np.asarray([min(e, EXPONENT_LIMIT) for e in other.exponents], dtype=_INT)
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
    _check_exponent(s)
    if block is None:
        indices = tuple(range(ring.nvars))
    else:
        blk = ring.block(block)
        indices = tuple(range(blk.start, blk.stop))
    gens = _as_array(monomials_of_degree(ring, s, indices), ring.nvars)
    return MonomialIdeal(ring, _canonical_tuple(_canonical_rows(gens)))


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
    ring, n = ideal.ring, ideal.ring.nvars
    gens = [(g, d - sum(g)) for g in ideal.gens if sum(g) <= d]  # (g, filler degree)
    count = sum(comb(k + n - 1, n - 1) for _, k in gens)
    if count > COMPONENT_LIMIT:
        raise CapError(f"component degree {d} would enumerate {count} generators, over the "
                       f"fixed limit of {COMPONENT_LIMIT} (not a FIBERLAB_CAPS cap; "
                       "it cannot be raised)")
    if not gens:
        return MonomialIdeal.zero(ring)
    _check_exponent(max(max(g) + k for g, k in gens))  # x_v^k is among the fillers
    fillers = {k: _as_array(monomials_of_degree(ring, k), n) for k in {k for _, k in gens}}
    rows = np.concatenate([fillers[k] + np.asarray(g, dtype=_INT) for g, k in gens])
    return MonomialIdeal(ring, _canonical_tuple(_minimal_rows(rows)))


def finite_length_reg(big: MonomialIdeal, small: MonomialIdeal) -> int | None:
    """Top degree where the quotient big/small is nonzero.

    Requires small to be contained in big with a finite-length quotient;
    the quotient's regularity is then its top nonzero degree.  Returns
    ``None`` for the empty quotient (equal ideals).  With m the ideal of
    all the variables, both steps are exact ideal arithmetic:

    - big/small has finite length iff big lies in small : m^oo, the
      intersection over the variables x_v of small : x_v^oo; that colon is
      small with the x_v-exponent of every generator set to 0.
    - A monomial u of big outside small of top degree has every x_v * u in
      small, so u lies in big & (small : m), and it is a minimal generator
      there: u = g * x_v * w with g in small : m would put u in small.  The
      top degree is the largest degree of such a generator outside small.
    """
    big._check_ring(small)
    if not big.contains(small):
        raise DomainError("second ideal is not contained in the first")
    if big == small:
        return None
    if small.is_zero():
        raise DomainError("quotient by the zero ideal has infinite length")
    for v in range(small.ring.nvars):
        saturated = small.array()
        saturated[:, v] = 0
        if not MonomialIdeal.from_exponents(small.ring, saturated).contains(big):
            raise DomainError("quotient is not of finite length")
    socle = big & small.colon(maxideal_power(small.ring, None, 1))
    return max(sum(g) for g in socle.gens if not small.member(g))


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
            return MonomialIdeal(target, tuple(gens))  # zero columns keep the order
    raise DomainError(f"ring {src.name!r} is not a block of {target.name!r}")

