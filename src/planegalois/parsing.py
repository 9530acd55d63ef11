"""Text front end for polynomials and field elements.

Grammar (whitespace insignificant, multiplication always explicit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := variable | coefficient | '(' expr ')'
    coefficient := integer | integer '/' positive-integer | 'z'

`z` denotes the cyclotomic generator and is only valid over Q(zeta_n).
Implicit juxtaposition such as `2X` is a syntax error.  Field elements use
the same grammar with an empty variable list.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .fields import Field, FieldElement
from .polynomials import MultiPoly, _grlex_key

ALLOWED_VARIABLES = {"X", "Y", "Z", "x", "y", "u", "v", "t", "s"}


class ParseError(ValueError):
    """Syntax or validation error, annotated with the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field, vars: Tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = vars

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> MultiPoly:
        result = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return result

    def expr(self) -> MultiPoly:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MultiPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        # Two adjacent operands without '*' is the juxtaposition error.
        tok = self.peek()
        if tok[0] in ("INT", "NAME", "("):
            raise ParseError("missing '*' between factors", tok[2])
        return value

    def factor(self) -> MultiPoly:
        value = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("INT")
            value = value**int(tok[1])
        return value

    def base(self) -> MultiPoly:
        tok = self.advance()
        kind, text, pos = tok
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "INT":
            numerator = int(text)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("INT")
                denominator = int(den_tok[1])
                if denominator == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return MultiPoly.constant(
                    self.field, self.vars, self.field.from_fraction(Fraction(numerator, denominator))
                )
            return MultiPoly.constant(self.field, self.vars, self.field.from_int(numerator))
        if kind == "NAME":
            if text == "z":
                if self.field.kind != "cyclotomic":
                    raise ParseError(f"coefficient 'z' is not an element of {self.field}", pos)
                return MultiPoly.constant(self.field, self.vars, self.field.generator())
            if text in self.vars:
                return MultiPoly.variable(self.field, self.vars, text)
            if text in ALLOWED_VARIABLES:
                raise ParseError(f"undeclared variable {text!r}", pos)
            raise ParseError(f"unknown name {text!r}", pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_poly(text: str, field: Field, vars: Sequence[str]) -> MultiPoly:
    """Parse a polynomial expression over the given field and variables."""
    return _Parser(text, field, tuple(vars)).parse()


def parse_element(text: str, field: Field) -> FieldElement:
    """Parse a field element (`p`, `p/q`, or a `z`-polynomial)."""
    return parse_poly(text, field, ()).constant_value()


def _coefficient_text(c: FieldElement) -> Tuple[str, str]:
    """Return (sign, body) with body safe to splice before '*monomial'."""
    body = str(c)
    if " + " in body or " - " in body:
        return "+", f"({body})"
    if body.startswith("-"):
        return "-", body[1:]
    return "+", body


def render_poly(p: MultiPoly) -> str:
    """Canonical text form; parse_poly(render_poly(p)) round-trips."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        sign, body = _coefficient_text(p.terms[exps])
        monomial = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e
        )
        if monomial:
            part = monomial if body == "1" else f"{body}*{monomial}"
        else:
            part = body
        pieces.append((sign, part))
    first_sign, first_part = pieces[0]
    out = first_part if first_sign == "+" else f"-{first_part}"
    for sign, part in pieces[1:]:
        out += f" + {part}" if sign == "+" else f" - {part}"
    return out
