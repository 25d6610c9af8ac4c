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

import operator
from dataclasses import dataclass, field

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
    """Named rings and ideals built up by a definition file."""

    rings: dict[str, Ring] = field(default_factory=dict)
    ideals: dict[str, MonomialIdeal] = field(default_factory=dict)
    characteristic: int = 0

    def ring(self, name: str) -> Ring:
        if name not in self.rings:
            raise GrammarError(f"unknown ring {name!r}")
        return self.rings[name]

    def ideal(self, name: str) -> MonomialIdeal:
        if name not in self.ideals:
            raise GrammarError(f"unknown ideal {name!r}")
        return self.ideals[name]


# binary operators, loosest first; '^' takes an integer and binds tightest
_PRECEDENCE = {":": 1, "+": 2, "&": 3, "*": 4}
_BINARY = {":": lambda a, b: a.colon(b), "+": operator.add, "&": operator.and_, "*": operator.mul}

# parentheses and call arguments nest at most this deep, a fixed limit that
# keeps the recursive descent well inside Python's recursion limit: a level
# costs 3 frames (atom, expression, power_expr), 4 through fiber_call
NESTING_LIMIT = 150


class _Parser(TokenStream):
    def __init__(self, tokens: list[Token], env: Environment):
        super().__init__(tokens)
        self.env = env
        self.depth = 0

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

    def expression(self, opener: Token | None = None) -> MonomialIdeal:
        """The longest expression at this point; with ``opener``, one inside
        parentheses or call arguments, one nesting level deeper.

        Operators of one precedence group to the left. The operands wait on an
        explicit stack, so a nesting level costs the same few Python frames
        whatever operators lead into it.
        """
        if opener is not None:
            if self.depth == NESTING_LIMIT:
                raise GrammarError(f"expressions nest deeper than the fixed limit of {NESTING_LIMIT} "
                                   "levels (not a FIBERLAB_CAPS cap)", position=opener.pos)
            self.depth += 1
        operands = [self.power_expr()]
        operators: list[str] = []
        while (tok := self.peek()) is not None and tok.text in _PRECEDENCE:
            self.next()
            while operators and _PRECEDENCE[operators[-1]] >= _PRECEDENCE[tok.text]:
                self.reduce(operands, operators.pop())
            operators.append(tok.text)
            operands.append(self.power_expr())
        while operators:
            self.reduce(operands, operators.pop())
        if opener is not None:
            self.depth -= 1
        return operands[0]

    def reduce(self, operands: list[MonomialIdeal], op: str) -> None:
        right = operands.pop()
        left, right = self.align(operands.pop(), right)
        operands.append(_BINARY[op](left, right))

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
            inner = self.expression(tok)
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
            arg = self.expression(self.expect("("))
            self.expect(")")
            return star_derivative(arg)
        if tok.text == "component":
            arg = self.expression(self.expect("("))
            self.expect(",")
            deg = self.next()
            if deg.kind != "int":
                raise GrammarError("expected an integer degree", position=deg.pos)
            self.expect(")")
            return component_ideal(arg, int(deg.text))
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
        a = self.expression(self.expect("("))
        b = self.expression(self.expect(","))
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


def load_definitions(text: str, characteristic: int = 0) -> Environment:
    env = Environment(characteristic=characteristic)
    parser = _Parser(_tokenize(text), env)
    parser.statements()
    return env


def load_file(path: str, characteristic: int = 0) -> Environment:
    """The definitions in the file at ``path``; a file that cannot be read as
    UTF-8 text is a GrammarError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GrammarError(str(exc)) from None
    except UnicodeDecodeError as exc:
        message = f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        raise GrammarError(message) from None
    return load_definitions(text, characteristic)


def eval_expression(env: Environment, text: str) -> MonomialIdeal:
    parser = _Parser(_tokenize(text), env)
    value = parser.expression()
    parser.end()
    return value
