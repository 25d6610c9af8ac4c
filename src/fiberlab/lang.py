"""Parser and evaluator for ideal-definition files.

Statement grammar (UTF-8 text, ``;``-terminated, ``#`` comments):

    ring <Name> = [v1, v2, ...];
    tensor <Name> = <RingName> (*) <RingName>;
    <Name> = ideal(<RingName>; m1, m2, ...);
    <Name> = maxideal(<RingName or BlockName>);
    <Name> = <expression>;

Expressions combine named ideals with ``+`` (sum), ``*`` (product),
``^ k`` (power), ``&`` (intersection), ``A : B`` (quotient, loosest
binding), the calls ``fiber(A, B)``, ``dstar(A)``, ``component(A, d)``,
``ideal(R; ...)`` and ``maxideal(R)``, and parentheses.  Bare variable
names act as principal ideals.  Binary operations between ideals over two
factor rings are lifted into a declared tensor ring containing both as
blocks, when there is exactly one such ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_CAPS, Caps
from .core import Monomial, Ring, Token, TokenStream, parse_monomial, tensor_ring, tokenize
from .errors import DomainError, GrammarError, RingMismatchError
from .fiber import fiber_product
from .ideals import MonomialIdeal, component_ideal, maxideal_power, star_derivative, tensor_embed

def _tokenize(text: str) -> list[Token]:
    # blank out comments, keeping every offset into the file
    cleaned = []
    for line in text.split("\n"):
        cut = line.find("#")
        cleaned.append(line if cut < 0 else line[:cut] + " " * (len(line) - cut))
    return tokenize("\n".join(cleaned))


@dataclass
class Environment:
    """Named rings and ideals built up by a definition file, and the caps
    that its ``component(A, d)`` calls obey."""

    rings: dict[str, Ring] = field(default_factory=dict)
    ideals: dict[str, MonomialIdeal] = field(default_factory=dict)
    characteristic: int = 0
    caps: Caps = DEFAULT_CAPS

    def ring(self, name: str) -> Ring:
        if name not in self.rings:
            raise GrammarError(f"unknown ring {name!r}")
        return self.rings[name]

    def ideal(self, name: str) -> MonomialIdeal:
        if name not in self.ideals:
            raise GrammarError(f"unknown ideal {name!r}")
        return self.ideals[name]


class _Parser(TokenStream):
    def __init__(self, tokens: list[Token], env: Environment):
        super().__init__(tokens)
        self.env = env

    # -- statements ----------------------------------------------------

    def statements(self) -> None:
        while self.peek() is not None:
            self.statement()

    def statement(self) -> None:
        tok = self.peek()
        if tok.kind != "name":
            raise GrammarError(f"expected a statement, found {tok.text!r}", position=tok.pos)
        if tok.text == "ring":
            self.ring_statement()
        elif tok.text == "tensor":
            self.tensor_statement()
        else:
            self.assignment()

    def ring_statement(self) -> None:
        name, variables = self.ring_header()
        self.expect(";")
        if name.text in self.env.rings or name.text in self.env.ideals:
            raise GrammarError(f"name {name.text!r} is already bound", position=name.pos)
        self.env.rings[name.text] = Ring(
            name.text, variables, characteristic=self.env.characteristic
        )

    def tensor_statement(self) -> None:
        self.expect("tensor")
        name = self.next()
        self.expect("=")
        left = self.next()
        op = self.next()
        if op.kind != "tensorop":
            raise GrammarError("expected '(*)' in tensor declaration", position=op.pos)
        right = self.next()
        self.expect(";")
        if name.text in self.env.rings or name.text in self.env.ideals:
            raise GrammarError(f"name {name.text!r} is already bound", position=name.pos)
        self.env.rings[name.text] = tensor_ring(
            name.text, self.env.ring(left.text), self.env.ring(right.text)
        )

    def assignment(self) -> None:
        name = self.next()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        if name.text in self.env.rings or name.text in self.env.ideals:
            raise GrammarError(f"name {name.text!r} is already bound", position=name.pos)
        self.env.ideals[name.text] = value

    # -- expressions -----------------------------------------------------
    # precedence: ':' < '+' < '&' < '*' < '^' < atoms

    def expression(self) -> MonomialIdeal:
        left = self.sum_expr()
        while self.at(":"):
            self.next()
            right = self.sum_expr()
            left, right = self.align(left, right)
            left = left.colon(right)
        return left

    def sum_expr(self) -> MonomialIdeal:
        left = self.meet_expr()
        while self.at("+"):
            self.next()
            right = self.meet_expr()
            left, right = self.align(left, right)
            left = left + right
        return left

    def meet_expr(self) -> MonomialIdeal:
        left = self.product_expr()
        while self.at("&"):
            self.next()
            right = self.product_expr()
            left, right = self.align(left, right)
            left = left & right
        return left

    def product_expr(self) -> MonomialIdeal:
        left = self.power_expr()
        while self.at("*"):
            self.next()
            right = self.power_expr()
            left, right = self.align(left, right)
            left = left * right
        return left

    def power_expr(self) -> MonomialIdeal:
        base = self.atom()
        while self.at("^"):
            self.next()
            exp = self.next()
            if exp.kind != "int":
                raise GrammarError("expected an integer exponent", position=exp.pos)
            base = base ** int(exp.text)
        return base

    def atom(self) -> MonomialIdeal:
        tok = self.next()
        if tok.text == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.kind == "int":
            if tok.text == "0":
                raise GrammarError(
                    "a bare 0 has no ring; use ideal(R;) for the zero ideal", position=tok.pos
                )
            raise GrammarError(f"unexpected number {tok.text!r}", position=tok.pos)
        if tok.kind != "name":
            raise GrammarError(f"unexpected token {tok.text!r}", position=tok.pos)
        if tok.text == "ideal":
            return self.ideal_call()
        if tok.text == "maxideal":
            return self.maxideal_call()
        if tok.text == "fiber":
            return self.fiber_call()
        if tok.text == "dstar":
            self.expect("(")
            arg = self.expression()
            self.expect(")")
            return star_derivative(arg)
        if tok.text == "component":
            self.expect("(")
            arg = self.expression()
            self.expect(",")
            deg = self.next()
            if deg.kind != "int":
                raise GrammarError("expected an integer degree", position=deg.pos)
            self.expect(")")
            return component_ideal(arg, int(deg.text), self.env.caps)
        if tok.text in self.env.ideals:
            return self.env.ideals[tok.text]
        # bare variable of a unique ring: a principal ideal
        owners = [
            ring for ring in self.env.rings.values() if tok.text in ring.variables
        ]
        base_owners = [r for r in owners if len(r.blocks) == 1]
        pick = base_owners[0] if len(base_owners) == 1 else (
            owners[0] if len(owners) == 1 else None
        )
        if pick is not None:
            mono = parse_monomial(pick, tok.text)
            return MonomialIdeal(pick, (mono.exponents,))
        raise GrammarError(f"unknown name {tok.text!r}", position=tok.pos)

    def ideal_call(self) -> MonomialIdeal:
        self.expect("(")
        rname = self.next()
        ring = self.env.ring(rname.text)
        self.expect(";")
        gens: list[Monomial] = []
        if self.at(")"):
            self.next()
            return MonomialIdeal.zero(ring)
        while True:
            gens.append(self.monomial(ring))
            if self.at(")"):
                self.next()
                break
            self.expect(",")
        return MonomialIdeal.from_monomials(gens)

    def maxideal_call(self) -> MonomialIdeal:
        self.expect("(")
        rname = self.next()
        self.expect(")")
        if rname.text in self.env.rings:
            return maxideal_power(self.env.ring(rname.text), None, 1)
        # a block of some declared tensor ring
        hosts = [
            ring
            for ring in self.env.rings.values()
            if len(ring.blocks) > 1 and rname.text in ring.block_names()
        ]
        if len(hosts) == 1:
            return maxideal_power(hosts[0], rname.text, 1)
        raise GrammarError(f"unknown ring or block {rname.text!r}", position=rname.pos)

    def fiber_call(self) -> MonomialIdeal:
        self.expect("(")
        a = self.expression()
        self.expect(",")
        b = self.expression()
        self.expect(")")
        setup = fiber_product(a, b)
        # reuse a declared tensor ring when one matches, so the result
        # combines with other ideals of that ring
        for ring in self.env.rings.values():
            if (
                len(ring.blocks) == 2
                and ring.variables == setup.T.variables
                and ring.block_names() == (a.ring.name, b.ring.name)
            ):
                return MonomialIdeal(ring, setup.F.gens)
        return setup.F

    # -- ring alignment ---------------------------------------------------

    def align(
        self, left: MonomialIdeal, right: MonomialIdeal
    ) -> tuple[MonomialIdeal, MonomialIdeal]:
        """Lift operands into a common declared tensor ring when needed."""
        if left.ring == right.ring:
            return left, right

        def lift(ideal: MonomialIdeal, ring: Ring) -> MonomialIdeal:
            return ideal if ideal.ring == ring else tensor_embed(ideal, ring)

        candidates = []
        for ring in self.env.rings.values():
            try:
                lifted = (lift(left, ring), lift(right, ring))
            except DomainError:  # not a block of this ring
                continue
            candidates.append(lifted)
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise RingMismatchError(
                f"operands live in {left.ring.name!r} and {right.ring.name!r} "
                "with no declared tensor ring containing both"
            )
        raise RingMismatchError(
            f"operands live in {left.ring.name!r} and {right.ring.name!r}; "
            "several declared tensor rings contain both, lift explicitly"
        )


def load_definitions(text: str, characteristic: int = 0,
                     caps: Caps = DEFAULT_CAPS) -> Environment:
    env = Environment(characteristic=characteristic, caps=caps)
    parser = _Parser(_tokenize(text), env)
    parser.statements()
    return env


def load_file(path: str, characteristic: int = 0, caps: Caps = DEFAULT_CAPS) -> Environment:
    with open(path, "r", encoding="utf-8") as fh:
        return load_definitions(fh.read(), characteristic, caps)


def eval_expression(env: Environment, text: str) -> MonomialIdeal:
    parser = _Parser(_tokenize(text), env)
    value = parser.expression()
    parser.end()
    return value
