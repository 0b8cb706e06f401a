"""Parsing and printing of polynomial expressions.

Grammar (recursive descent, expanded to a canonical Polynomial at parse
time):

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := base ['^' INT]
    base       := INT ['/' INT] | VAR | '(' expression ')'

Variables are fixed by the ambient: ``x, y`` for ``affine2`` and
``x0, x1, x2`` for ``projective3``.  Multiplication is always explicit
(no ``2x`` or ``xy``), exponents are non-negative integer literals, and
rational literals are written ``p/q``.  ASCII whitespace between tokens
is ignored.  Every failure raises :class:`ExprSyntaxError` carrying the
byte offset of the offending token.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import GRLEX, MonomialOrder, Polynomial, _power_table, _product_table

AMBIENTS = {
    "affine2": ("x", "y"),
    "projective3": ("x0", "x1", "x2"),
}


class ExprSyntaxError(ValueError):
    """Syntax error in a polynomial expression.

    Attributes: ``offset`` (position in the input, 0-based, at most
    len(input)), ``message``, and ``expected`` (a short hint of what
    would have been legal at that position).
    """

    def __init__(self, offset: int, message: str, expected: str = ""):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


_TOK_INT = "int"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append((_TOK_INT, text[i:j], i))
            i = j
            continue
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z"):
            j = i
            while j < n and (("a" <= text[j] <= "z") or ("A" <= text[j] <= "Z")
                             or ("0" <= text[j] <= "9") or text[j] == "_"):
                j += 1
            toks.append((_TOK_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+-*^/()":
            toks.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, f"unexpected character {ch!r}", "digit, variable or operator")
    toks.append((_TOK_END, "", n))
    return toks


_MAX_NESTING = 200

# The parser computes on plain term tables (monomial -> nonzero int or
# Fraction) that it owns outright, so sums and products may update them in
# place; ``parse_poly`` turns the final table into one Polynomial.
Table = dict


def _add_into(acc: Table, t: Table, sign: int) -> None:
    for m, c in t.items():
        s = acc.get(m, 0) + c if sign > 0 else acc.get(m, 0) - c
        if s:
            acc[m] = s
        else:
            del acc[m]


class _Parser:
    def __init__(self, text: str, varnames: tuple[str, ...]):
        self.text = text
        self.varnames = varnames
        self.nvars = len(varnames)
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != _TOK_OP or val != op:
            raise ExprSyntaxError(off, f"expected {op!r}", op)
        return self.advance()

    def parse(self) -> Table:
        p = self.expression()
        kind, val, off = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(off, f"unexpected {val!r} after expression", "end of input or operator")
        return p

    def expression(self) -> Table:
        sign = 1
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        acc = self.term()
        if sign < 0:
            for m in acc:
                acc[m] = -acc[m]
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                _add_into(acc, self.term(), 1 if val == "+" else -1)
            else:
                return acc

    def term(self) -> Table:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val == "*":
                self.advance()
                acc = _product_table(acc, self.factor())
            else:
                return acc

    def factor(self) -> Table:
        base = self.base()
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind != _TOK_INT:
                raise ExprSyntaxError(off, "exponent must be a non-negative integer literal",
                                      "non-negative integer")
            self.advance()
            return _power_table(base, int(val), self.nvars)
        return base

    def base(self) -> Table:
        kind, val, off = self.advance()
        if kind == _TOK_INT:
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == _TOK_OP and val2 == "/":
                self.advance()
                kind3, val3, off3 = self.peek()
                if kind3 != _TOK_INT:
                    raise ExprSyntaxError(off3, "fraction denominator must be an integer literal",
                                          "positive integer")
                self.advance()
                den = int(val3)
                if den == 0:
                    raise ExprSyntaxError(off3, "fraction has zero denominator", "nonzero integer")
                num = Fraction(num, den)
            return {(0,) * self.nvars: num} if num else {}
        if kind == _TOK_NAME:
            try:
                idx = self.varnames.index(val)
            except ValueError:
                known = ", ".join(self.varnames)
                raise ExprSyntaxError(off, f"unknown variable {val!r}", known) from None
            return {tuple(int(i == idx) for i in range(self.nvars)): 1}
        if kind == _TOK_OP and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ExprSyntaxError(off, f"parentheses nested deeper than {_MAX_NESTING}",
                                      "flatter expression")
            p = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return p
        what = repr(val) if val else "end of input"
        raise ExprSyntaxError(off, f"unexpected {what}", "number, variable or '('")


def parse_poly(text: str, ambient: str = "affine2") -> Polynomial:
    """Parse an expression into a fully expanded Polynomial.

    ``ambient`` is ``"affine2"`` (variables x, y) or ``"projective3"``
    (variables x0, x1, x2).  Raises ExprSyntaxError on any malformed input.
    """
    try:
        varnames = AMBIENTS[ambient]
    except KeyError:
        raise ValueError(f"unknown ambient {ambient!r}; use one of {sorted(AMBIENTS)}") from None
    table = _Parser(text, varnames).parse()
    for m, c in table.items():
        if type(c) is Fraction and c.denominator == 1:
            table[m] = c.numerator
    return Polynomial._from_valid(len(varnames), table)


def render_poly(f: Polynomial, order: MonomialOrder = GRLEX) -> str:
    """Canonical string form: terms in strictly decreasing monomial order,
    unit coefficients elided next to variables.  The output always parses
    back to ``f`` under the matching ambient."""
    if f.is_zero():
        return "0"
    if f.nvars == 2:
        names = ("x", "y")
    elif f.nvars == 3:
        names = ("x0", "x1", "x2")
    else:
        raise ValueError("rendering supports 2 or 3 variables")
    terms = f.terms_dict()
    out = []
    for mono in sorted(terms, key=order.key, reverse=True):
        c = terms[mono]
        neg = c < 0
        mag = -c if neg else c
        pows = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e)
        if not pows:
            body = str(mag)
        elif mag == 1:
            body = pows
        else:
            body = f"{mag}*{pows}"
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)
