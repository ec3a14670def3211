"""Tiny recursive-descent parser for rational function expressions.

Grammar: `+ - * / ^ ( )`, integer literals, one designated variable
(default "y", "x" for base-curve expressions), the field generator "w",
and named parameters supplied through a bindings mapping.  `^` takes an
integer exponent and binds tightest; unary minus is supported.  A power
whose degree (exponent times the degree of its base) exceeds
MAX_POWER_DEGREE is rejected before it is computed.
"""

from __future__ import annotations

import re

from .ffield import FieldSpec
from .ratfunc import RationalFunction

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(rf"\s*([0-9]+|{_NAME}|\*\*|[-+*/^()])")  # ASCII digits: \d takes any script's

MAX_POWER_DEGREE = 4096  # tc's cost at this degree, on a power and on a fraction: README's "largest dense `^`" paragraph


class ExprError(ValueError):
    """Malformed expression."""


class ExprLimitError(ExprError):
    """Well-formed expression whose evaluation would exceed a work bound."""


def _integer(tok):
    try:
        return int(tok)
    except ValueError as exc:  # more digits than int() converts
        raise ExprError(f"integer literal of {len(tok)} digits is too long") from exc


class _Parser:
    def __init__(self, text: str, spec: FieldSpec, variable: str, bindings):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ExprError(f"unexpected character {text[pos:].strip()[0]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.spec = spec
        self.variable = variable
        self.bindings = bindings or {}
        for name in self.bindings:  # atom reads the variable and w before any binding
            if name in (variable, "w") or not re.fullmatch(_NAME, name):
                raise ExprError(f"binding name {name!r} is not one an expression can read")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ExprError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> RationalFunction:
        out = self.sum()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return out

    def sum(self):
        if self.peek() == "-":
            self.next()
            acc = -self.product()
        else:
            acc = self.product()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.product()
            acc = acc + term if op == "+" else acc - term
        return acc

    def product(self):
        acc = self.power()
        while self.peek() in ("*", "/"):
            op = self.next()
            term = self.power()
            if op == "*":
                acc = acc * term
            else:
                if term.is_zero():
                    raise ExprError("division by zero in expression")
                acc = acc / term
        return acc

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise ExprError(f"integer exponent expected, got {tok!r}")
            n = _integer(tok)
            degree = n * max(base.num.degree, base.den.degree)
            if degree > MAX_POWER_DEGREE:
                raise ExprLimitError(
                    f"power of degree {degree} exceeds the limit MAX_POWER_DEGREE = {MAX_POWER_DEGREE}"
                )
            if neg:
                if base.is_zero():
                    raise ExprError("negative power of zero")
                return base ** (-n)
            return base**n
        return base

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if tok == "(":
            inner = self.sum()
            self.expect(")")
            return inner
        if tok.isdigit():
            return RationalFunction.constant(self.spec, _integer(tok))
        if tok == self.variable:
            return RationalFunction.variable(self.spec)
        if tok == "w":
            if self.spec.k == 1:
                raise ExprError("no generator w in a prime field")
            return RationalFunction.constant(self.spec, self.spec.element(self.spec.p))
        if tok in self.bindings:
            return RationalFunction.constant(self.spec, self.bindings[tok])
        raise ExprError(f"unknown name {tok!r}")


def parse_expression(text: str, spec: FieldSpec, variable: str = "y", bindings=None) -> RationalFunction:
    try:
        return _Parser(text, spec, variable, bindings).parse()
    except RecursionError as exc:  # the descent recurses once per nesting level
        raise ExprLimitError("expression nests too deeply to parse") from exc


def parse_element(text: str, spec: FieldSpec, bindings=None):
    """Parse a constant expression (e.g. "w+1" or "5") into a FieldElement."""
    rf = parse_expression(text, spec, variable="\0", bindings=bindings)
    if not rf.is_constant():
        raise ExprError(f"expected a constant field element, got {rf}")
    return rf.constant_value()
