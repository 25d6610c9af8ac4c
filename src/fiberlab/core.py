"""Polynomial ring descriptors, exponent vectors, and the shared grammar.

Everything downstream works with a ``Ring`` (named variables partitioned
into contiguous blocks, plus a coefficient characteristic) and plain
integer exponent vectors.  A ``Monomial`` is an exponent vector bound to
its ring; coefficients are never tracked.  One tokenizer and one set of
rules parse monomials and ring declarations, both here and inside
definition files (``lang``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, GrammarError, RingMismatchError

Exponents = tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_characteristic(p: int) -> int:
    """Return ``p`` if it is 0 or a prime whose GF(p) arithmetic fits in int64.

    ``linalg.rank_mod_p`` multiplies two residues in int64, so a prime with
    (p - 1)^2 >= 2^63 would overflow and give wrong ranks.
    """
    if p != 0 and ((p - 1) ** 2 >= 2**63 or not _is_prime(p)):
        raise DomainError(
            f"characteristic must be 0 or a prime p with (p-1)^2 < 2^63, got {p}"
        )
    return p


def resolve_characteristic(ring: Ring, characteristic: int | None) -> int:
    """The field of a computation: the checked override, else the ring's own."""
    if characteristic is None:
        return ring.characteristic
    return check_characteristic(characteristic)


@dataclass(frozen=True)
class Block:
    """A contiguous, named slice of a ring's variables."""

    name: str
    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise DomainError(f"block {self.name!r} has no variables")

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Ring:
    """An ambient polynomial ring k[variables] with named variable blocks.

    A plain ring has a single block covering all variables.  A tensor ring
    concatenates the blocks of its factors, so block-restricted operations
    (maximal ideal of one factor, embeddings) stay well-defined.
    """

    name: str
    variables: tuple[str, ...]
    blocks: tuple[Block, ...] = ()
    characteristic: int = 0

    def __post_init__(self):
        if not self.variables:
            raise DomainError("a ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            dup = next(v for i, v in enumerate(self.variables) if v in self.variables[:i])
            raise GrammarError(f"duplicate variable name {dup!r}")
        if not self.blocks:
            object.__setattr__(self, "blocks", (Block(self.name, 0, len(self.variables)),))
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise DomainError("duplicate block names")
        pos = 0
        for b in self.blocks:
            if b.start != pos:
                raise DomainError("blocks must tile the variables contiguously")
            pos = b.stop
        if pos != len(self.variables):
            raise DomainError("blocks must cover all variables")
        check_characteristic(self.characteristic)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise DomainError(f"ring {self.name!r} has no block {name!r}")

    def block_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    def zero_exponents(self) -> Exponents:
        return (0,) * self.nvars

    def __str__(self) -> str:
        return f"{self.name} = k[{', '.join(self.variables)}]"


def tensor_ring(name: str, left: Ring, right: Ring) -> Ring:
    """Concatenate two rings into their tensor product, keeping both block lists."""
    if left.characteristic != right.characteristic:
        raise RingMismatchError(
            f"cannot tensor rings of characteristic {left.characteristic} and "
            f"{right.characteristic}"
        )
    clash = set(left.variables) & set(right.variables)
    if clash:
        raise GrammarError(f"tensor factors share variable names {sorted(clash)}")
    shift = left.nvars
    blocks = left.blocks + tuple(Block(b.name, b.start + shift, b.stop + shift) for b in right.blocks)
    bnames = [b.name for b in blocks]
    if len(set(bnames)) != len(bnames):
        dup = sorted({n for n in bnames if bnames.count(n) > 1})
        raise GrammarError(f"tensor factors share block names {dup}")
    return Ring(name, left.variables + right.variables, blocks, left.characteristic)


def sort_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Canonical comparison key: total degree first, then lex on exponents.

    Listings sort descending on this key, so x^2 precedes x*y precedes y^2.
    """
    return (sum(exponents), exponents)


def canonical_order(vectors) -> list[Exponents]:
    return sorted(vectors, key=sort_key, reverse=True)


@dataclass(frozen=True, order=False)
class Monomial:
    """A monomial identified with its exponent vector in a fixed ring."""

    ring: Ring
    exponents: Exponents

    def __post_init__(self):
        if len(self.exponents) != self.ring.nvars:
            raise DomainError(
                f"exponent vector of length {len(self.exponents)} in a "
                f"{self.ring.nvars}-variable ring"
            )
        if any(e < 0 for e in self.exponents):
            raise DomainError("negative exponent")

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, e in zip(self.ring.variables, self.exponents) if e > 0)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def _check_ring(self, other: "Monomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("monomials live in different rings")

    def divides(self, other: "Monomial") -> bool:
        self._check_ring(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        return Monomial(self.ring, tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for v, e in zip(self.ring.variables, self.exponents):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)


# -- the grammar shared by monomials, rings and definition files --------------

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<tensorop>\(\*\))|"
    r"(?P<sym>[=\[\],;()+*^:&])|(?P<bad>\S))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "int", "tensorop" or "sym"
    text: str
    pos: int  # offset into the tokenized text


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while (m := _TOKEN.match(text, pos)) is not None:
        if m.lastgroup == "bad":
            raise GrammarError(f"unexpected character {m.group('bad')!r}", position=m.start("bad"))
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class TokenStream:
    """A cursor over tokens, with the rules for ring headers and monomials."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise GrammarError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise GrammarError(f"expected {text!r}, found {tok.text!r}", position=tok.pos)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise GrammarError(f"trailing input {tok.text!r}", position=tok.pos)

    def ring_header(self) -> tuple[Token, tuple[str, ...]]:
        """``ring Name = [v1, v2, ...]``: the name token and the variable names."""
        self.expect("ring")
        name = self.next()
        if name.kind != "name":
            raise GrammarError("expected a ring name", position=name.pos)
        self.expect("=")
        self.expect("[")
        variables = []
        while True:
            v = self.next()
            if v.kind != "name":
                raise GrammarError("expected a variable name", position=v.pos)
            variables.append(v.text)
            if self.at("]"):
                self.next()
                return name, tuple(variables)
            self.expect(",")

    def monomial(self, ring: Ring) -> Monomial:
        """Factors joined by ``*``; a factor is ``1``, ``v`` or ``v^k``."""
        exps = [0] * ring.nvars
        while True:
            tok = self.next()
            if tok.kind == "name":
                if tok.text not in ring.variables:
                    raise GrammarError(
                        f"unknown variable {tok.text!r} in ring {ring.name!r}", position=tok.pos
                    )
                power = 1
                if self.at("^"):
                    self.next()
                    e = self.next()
                    if e.kind != "int":
                        raise GrammarError("expected an integer exponent", position=e.pos)
                    power = int(e.text)
                exps[ring.variables.index(tok.text)] += power
            elif tok.text != "1":
                raise GrammarError(f"bad monomial factor {tok.text!r}", position=tok.pos)
            if not self.at("*"):
                return Monomial(ring, tuple(exps))
            self.next()


def parse_ring(text: str, characteristic: int = 0) -> Ring:
    """Parse a single ``ring Name = [v1, v2, ...];`` declaration (``;`` optional)."""
    stream = TokenStream(tokenize(text))
    name, variables = stream.ring_header()
    if stream.at(";"):
        stream.next()
    stream.end()
    return Ring(name.text, variables, characteristic=characteristic)


def parse_monomial(ring: Ring, text: str) -> Monomial:
    """Parse ``a^2*b`` style monomial text; ``1`` denotes the unit monomial."""
    stream = TokenStream(tokenize(text))
    mono = stream.monomial(ring)
    stream.end()
    return mono
