"""Recursive-descent parser for the fixture coefficient grammar.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | IDENT | '(' expr ')'

Integer and rational literals ("3", "-1/2"), coordinate identifiers, and the
usual precedence.  Every value is an exact :class:`RatFun` over the target
space; errors carry the offending position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import RatFun
from .exterior import Space

__all__ = ["parse_expression", "ExpressionError"]


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, IDENT, OP, END
    text: str
    pos: int


_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("INT", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i, text)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, space: Space):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> _Token:
        token = self.peek()
        if token.kind != "OP" or token.text != op:
            raise ExpressionError(f"expected {op!r}", token.pos, self.text)
        return self.advance()

    def parse(self) -> RatFun:
        value = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ExpressionError(f"unexpected {tail.text!r}", tail.pos, self.text)
        return value

    def expr(self) -> RatFun:
        value = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.text == "+" else value - rhs
        return value

    def term(self) -> RatFun:
        value = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.unary()
            if op.text == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ExpressionError(
                        "division by identically-zero denominator", op.pos, self.text
                    )
                value = value / rhs
        return value

    def unary(self) -> RatFun:
        sign = 1
        while self.peek().kind == "OP" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self) -> RatFun:
        value = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            caret = self.advance()
            negative = False
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                negative = True
            token = self.peek()
            if token.kind != "INT":
                raise ExpressionError("exponent must be an integer", token.pos, self.text)
            self.advance()
            exponent = int(token.text)
            if negative:
                if value.is_zero():
                    raise ExpressionError(
                        "negative power of the zero function", caret.pos, self.text
                    )
                exponent = -exponent
            value = value**exponent
        return value

    def atom(self) -> RatFun:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return self.space.scalar(int(token.text))
        if token.kind == "IDENT":
            self.advance()
            if not self.space.is_chart:
                raise ExpressionError(
                    f"identifier {token.text!r} not allowed: Lie-frame coefficients are constants",
                    token.pos,
                    self.text,
                )
            try:
                index = self.space.name_index(token.text)
            except KeyError:
                raise ExpressionError(
                    f"unknown identifier {token.text!r}", token.pos, self.text
                ) from None
            return self.space.coordinate(index)
        if token.kind == "OP" and token.text == "(":
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExpressionError(
            f"expected a value, got {token.text or 'end of input'!r}", token.pos, self.text
        )


def parse_expression(text: str, space: Space) -> RatFun:
    """Parse a coefficient expression into a canonical rational function.
    Nesting too deep for the recursive descent is an ExpressionError."""
    parser = _Parser(text, space)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("parentheses nested too deeply", parser.peek().pos, text) from None
