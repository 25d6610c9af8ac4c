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
int64 words, where one subtraction compares every field of a word.
``_minimal_rows`` packs its rows once and drops repeats by sorting one key
per row.  Then, in one round per degree that holds a minimal generator,
the rows of least degree left are minimal, and ``_Packing.divisible``
drops every row they divide.  Inputs of at most ``_SMALL_MINIMAL_ROWS`` =
64 rows, where NumPy's fixed cost per call outweighs the arithmetic, take
the same steps on Python ints and return the same int32 array in the
same order.  Containment and intersection test divisibility with
``_divisible``; at most ``_SMALL_DIVISIBLE_PAIRS`` = 256 row pairs take
the same test on Python ints and give the same booleans.  These branches,
and those of ``betti``, key each row on ``_IntLayout``: ``_Packing``'s
fields on one int, with no word limit.  An ideal
builds the int32 array of its generators once, read-only (``array``).
``component_ideal`` refuses, with ``CapError``, to enumerate more than
``COMPONENT_LIMIT`` = 2^22 generators, another fixed limit and its only
bound, as each monomial takes O(n) steps whatever its degree.  Products
and intersections, and so powers and colons by an ideal, lay out one row
per pair of generators (an intersection pairs only the generators that lie
outside the other ideal); past ``PAIRWISE_LIMIT`` = 2^28 cells that layout
is refused with ``CapError`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import lshift

import numpy as np

from .core import Exponents, Monomial, Ring, format_monomial
from .errors import CapError, DomainError, RingMismatchError

_INT = np.int32
EXPONENT_LIMIT = 2**31 - 1
COMPONENT_LIMIT = 1 << 22
# cells of one pairwise layout: 2^28 int32 cells take 1 GiB.  The largest layout of the
# benchmark, scenarios and acceptance criteria has 580,720 cells; the last product of
# maxideal(R)^26 in 8 variables, about 2.2 * 10^8, still answers under a 3 GB address space
PAIRWISE_LIMIT = 1 << 28
# cells (row pairs x words) of one chunk of _Packing.divisible: its int64 intermediates stay
# in cache.  Measured on a 2-core box, each figure the best of repeated interleaved runs:
# the 1,359 _minimal_rows inputs of one ideal-identities round took 0.32 s at 2^14, 0.29 s
# at 2^16, 0.32 s at 2^18 and 0.35 s at 2^20 cells; the lattice closure of m*I^2 (Appendix A),
# whose contractibility test shares the chunk, took 145-162 ms at 2^16 and 162-173 ms at 2^20
_DIVISIBLE_CELLS = 1 << 16
# rows up to which _minimal_rows runs on Python ints (_small_minimal_rows), on any number of
# packed words.  The inputs of two or more rows of one round (seeds 1 and 2, each input timed
# in both branches, fastest of 7) took, over the array branch's time, with this at 16, 32, 64
# and 128: claim-loop 0.64-0.66, 0.53-0.54, 0.50-0.51, 0.51-0.52; ideal-identities 0.92,
# 0.91-0.92, 0.92, 1.00; tor-exact 0.33, 0.27, 0.26, 0.26.  None of them took two words; on
# random rows of 2 to 6 words the ints took 0.1-0.5 times the arrays' time at 16 to 128 rows
_SMALL_MINIMAL_ROWS = 64
# row pairs (rows of gens x rows tested) up to which _divisible runs on Python ints
# (_small_divisible), on any number of packed words.  Every input of one round of each
# workload (seeds 1 and 2, each input timed in both branches, fastest of 7; two sweeps) took,
# over the array branch's time, with this at 64, 128, 256, 512 and 1,024: claim-loop
# 0.53-0.56, 0.51, 0.46-0.50, 0.50 and 0.47; tor-exact 0.24-0.25, 0.22, 0.20, 0.20 and 0.20;
# ideal-identities 0.98, 0.97, 0.96, 0.99 and 1.10.  appendix-lattice made no call
_SMALL_DIVISIBLE_PAIRS = 256


def _check_exponent(top: int) -> None:
    if top > EXPONENT_LIMIT:
        raise DomainError(f"exponent {top} is over the fixed limit of 2^31 - 1 "
                          "(not a FIBERLAB_CAPS cap; it cannot be raised)")


def _pairwise_rows(op: np.ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op`` of every row of ``a`` with every row of ``b``, row-major by ``a``."""
    cells = len(a) * len(b) * a.shape[1]
    if cells > PAIRWISE_LIMIT:
        raise CapError.fixed(f"pairing {len(a)} with {len(b)} generators in {a.shape[1]} "
                             f"variables would lay out {cells} cells", PAIRWISE_LIMIT)
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
        self.maxexp, self.ncols = maxexp, len(maxexp)
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
        self.low = np.zeros(self.nwords, dtype=np.int64)  # the value 1 in every field
        by_width: dict[int, np.ndarray] = {}
        for _, word, shift, w in self.fields:
            self.guard[word] |= 1 << (shift + w)
            self.low[word] |= 1 << shift
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
        """a_v <= b_v in every field, reduced over the last (word) axis, a word at a time.

        With no guard bits set in a or b, a field where b_v < a_v borrows in
        b - a, and the lowest such field leaves its guard bit set.
        """
        out = None
        for word, guard in enumerate(self.guard.tolist()):
            diff = b[..., word] - a[..., word]
            diff &= guard
            out = diff == 0 if out is None else out & (diff == 0)
        return out

    def divisible(self, gens: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """True where some packed row of ``gens`` divides the packed row of ``rows``."""
        out = np.empty(len(rows), dtype=bool)
        step = max(1, _DIVISIBLE_CELLS // gens.size)
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step, None, :]
            out[lo : lo + step] = self.divides(gens[None], part).any(axis=1)
        return out

    def lowered(self, a: np.ndarray) -> np.ndarray:
        """a_v - 1 in every field where a_v > 0: a minus the indicator of its support."""
        ones = self.geq(a, self.low)  # guard bits of the fields where a_v >= 1
        out = a.copy()
        for w, guards in self.by_width:
            out -= (ones & guards) >> w
        return out


class _IntLayout(dict):
    """``_Packing``'s field layout on one Python int, which has no word limit.

    Column v's field starts at bit ``shifts[v]``, as wide as its maximum, with
    a guard bit above it (a column whose maximum is 0 has no field); ``bits``
    is the width of them all.  A row's key, ``sum(map(lshift, row, shifts))``,
    is written out in each caller's loop.  When the fields fit into one int64
    word the layout is ``_Packing``'s: the same ``guard`` and ``low`` bits and
    keys equal to the packed words, so the keys' numeric order is the
    packed-key order.  With no guard bit set in a or b, b divides a iff
    ``(a - b) & guard == 0``: the lowest field where a_v < b_v borrows and
    leaves its guard bit set (a borrow past the top field makes a - b < 0).
    ``self[ge]`` holds the value bits of the fields whose guard bits ``ge``
    holds, the spread of ``_Packing.join``, computed once per set that occurs.
    """

    def __init__(self, maxima):
        shifts, guard, used = [], 0, 0
        for top in maxima:
            shifts.append(used)
            width = top.bit_length()
            if width:
                guard |= 1 << (used + width)
                used += width + 1
        self.shifts, self.guard, self.bits = shifts, guard, used
        # the fields follow each other from bit 0: each but the first starts above a guard
        self.low = (guard << 1 | 1) ^ (1 << used)

    def __missing__(self, ge: int) -> int:
        spread, rest = 0, ge
        while rest:  # guard bit g of a field whose lowest value bit is the top low bit below g
            g = rest & -rest
            spread |= g - (1 << ((self.low & (g - 1)).bit_length() - 1))
            rest ^= g
        self[ge] = spread
        return spread


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
    """True where some row of ``gens`` divides (is componentwise <=) the row of ``rows``.

    At most ``_SMALL_DIVISIBLE_PAIRS`` row pairs are tested on Python ints
    (``_small_divisible``), with the same result.
    """
    if len(gens) == 0 or len(rows) == 0:
        return np.zeros(len(rows), dtype=bool)
    if len(gens) * len(rows) <= _SMALL_DIVISIBLE_PAIRS:
        return _small_divisible(gens.tolist(), rows.tolist())
    packing = _Packing(np.maximum(gens.max(axis=0), rows.max(axis=0)))
    return packing.divisible(packing.pack(gens), packing.pack(rows))


def _small_divisible(gens: list, rows: list) -> np.ndarray:
    """``_divisible`` on Python ints: g divides r iff (r - g) & guard == 0 on their
    ``_IntLayout`` keys."""
    layout = _IntLayout(map(max, zip(*gens, *rows)))
    shifts, guard = layout.shifts, layout.guard
    keys = [sum(map(lshift, g, shifts)) for g in gens]
    out = []
    for row in rows:
        key = sum(map(lshift, row, shifts))
        for g in keys:
            if (key - g) & guard == 0:
                out.append(True)
                break
        else:
            out.append(False)
    return np.array(out, dtype=bool)


def _canonical_rows(arr: np.ndarray) -> np.ndarray:
    """Distinct rows in canonical order: total degree, then lex, both descending."""
    if len(arr) <= 1:
        return arr
    return arr[np.lexsort((*arr.T[::-1], arr.sum(axis=1)))[::-1]]


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """The rows no other row divides (is componentwise <=), in canonical order.

    The rows are packed once and deduplicated on their keys.  Then, in
    rounds, the rows of least total degree that are left are minimal: a
    proper divisor of one of them has smaller degree, so a row taken in an
    earlier round divides both and dropped it.  Every row they divide is
    dropped, on the words already packed, until no row is left.  Only the
    minimal rows are sorted into canonical order.  At most
    ``_SMALL_MINIMAL_ROWS`` rows take the same steps on Python ints
    (``_small_minimal_rows``), with the same result.
    """
    if len(arr) <= 1:
        return arr
    if len(arr) <= _SMALL_MINIMAL_ROWS:
        return _small_minimal_rows(arr)
    packing = _Packing(arr.max(axis=0))
    keys = _sorted_unique(_row_keys(packing.pack(arr)))
    words = keys.view(np.int64).reshape(len(keys), packing.nwords)
    rows = packing.unpack(words)
    degrees = rows.sum(axis=1)
    order = np.argsort(degrees, kind="stable")
    words, rows, degrees = words[order], rows[order], degrees[order]
    minimal = []
    while len(rows):
        top = np.searchsorted(degrees, degrees[0], side="right")  # the least degree left
        minimal.append(rows[:top])
        rest = top + np.flatnonzero(~packing.divisible(words[:top], words[top:]))
        words, rows, degrees = words[rest], rows[rest], degrees[rest]
    return _canonical_rows(np.concatenate(minimal))


def _small_minimal_rows(arr: np.ndarray) -> np.ndarray:
    """``_minimal_rows`` on Python ints: one ``_IntLayout`` key per row.

    Ints have no word limit, so every row packs into one key, whatever its
    exponents.  The layout is built on the reversed columns, so the first
    column takes the highest field, and the degree sits above them all: the
    keys sort in the reverse of the canonical order, and repeats share a
    key.  A row is kept iff no kept key m divides its key k, i.e.
    (k - m) & guard == 0 (the degree bits above take any borrow past the
    top field).  Taken by ascending degree, the kept rows are the minimal
    ones, as in the array branch's rounds.
    """
    rows = arr.tolist()
    layout = _IntLayout(list(map(max, zip(*rows)))[::-1])
    shifts, guard, bits = layout.shifts[::-1], layout.guard, layout.bits
    by_key = {(sum(row) << bits) | sum(map(lshift, row, shifts)): row for row in rows}
    kept, minimal = [], []
    for key in sorted(by_key):
        for m in kept:
            if (key - m) & guard == 0:
                break
        else:
            kept.append(key)
            minimal.append(by_key[key])
    return np.array(minimal[::-1], dtype=_INT).reshape(len(minimal), arr.shape[1])


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
        """The generators as a read-only int32 array, built once per ideal."""
        arr = self.__dict__.get("_array")
        if arr is None:
            arr = _as_array(self.gens, self.ring.nvars)
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)  # not a field: equality and hashing ignore it
        return arr

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
        # a generator that lies in the other ideal lies in the intersection, and its
        # joins lie above it: only the generators outside the other ideal are paired
        a_in, b_in = _divisible(b, a), _divisible(a, b)
        joins = _pairwise_rows(np.maximum, a[~a_in], b[~b_in])
        rows = np.concatenate([a[a_in], b[b_in], joins])
        return MonomialIdeal(self.ring, _canonical_tuple(_minimal_rows(rows)))

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
    """Yield exponent vectors of all degree-``d`` monomials in the given variables.

    They come in descending lex order on ``indices``, the order of
    ``itertools.combinations_with_replacement(indices, d)``: a step moves a
    unit from the last nonzero exponent but the final one to the next
    variable, which takes the final exponent too.
    """
    indices = tuple(range(ring.nvars)) if indices is None else indices
    if not indices:  # no variables: only the degree-0 monomial
        if d == 0:
            yield ring.zero_exponents()
        return
    exps, last = [0] * ring.nvars, indices[-1]
    exps[indices[0]] = d
    while True:
        yield tuple(exps)
        tail, exps[last], k = exps[last], 0, len(indices) - 2
        while k >= 0 and not exps[indices[k]]:
            k -= 1
        if k < 0:
            return
        exps[indices[k]] -= 1
        exps[indices[k + 1]] = tail + 1


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


def component_ideal(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """Ideal generated by every degree-``d`` monomial of ``ideal``."""
    if d < 0:
        raise DomainError("negative component degree")
    if ideal.is_zero():
        return ideal
    ring, n = ideal.ring, ideal.ring.nvars
    gens = [(g, d - sum(g)) for g in ideal.gens if sum(g) <= d]  # (g, filler degree)
    count = sum(comb(k + n - 1, n - 1) for _, k in gens)
    if count > COMPONENT_LIMIT:
        raise CapError.fixed(f"component degree {d} would enumerate {count} generators",
                             COMPONENT_LIMIT)
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
        saturated = small.array().copy()
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

