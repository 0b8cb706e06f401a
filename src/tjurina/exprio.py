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

A text is scanned once, by ``findall`` of one regular expression; token
offsets are recomputed only when an error is reported.  A term folds its
number, ``p/q``, variable and ``^k`` factors into one coefficient and one
exponent vector; only a parenthesised factor becomes a term table.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from operator import add

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


# One token: an integer literal, a name, or any other single character but
# whitespace, which is an operator or else illegal.  The whitespace between
# tokens is what ``findall`` skips.
_TOKENS = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")
# The characters a one-character token may be.
_ONE_CHAR = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz+-*^/()")

_MAX_NESTING = 200

# The parser computes on plain term tables (monomial -> nonzero int or
# Fraction) that it owns outright, so sums may update them in place;
# ``parse_poly`` turns the final table into one Polynomial.
Table = dict


def _add_into(acc: Table, t: Table) -> None:
    for m, c in t.items():
        s = acc.get(m)
        if s is None:  # a new monomial: no 0 + c, which is slow for a Fraction
            acc[m] = c
            continue
        s += c
        if s:
            acc[m] = s
        else:
            del acc[m]


class _Parser:
    """Recursive descent over the token texts; the end of input is the
    empty token."""

    def __init__(self, text: str, varnames: tuple[str, ...]):
        self.text = text
        self.varnames = varnames
        self.index = {name: i for i, name in enumerate(varnames)}
        self.toks = toks = _TOKENS.findall(text)
        illegal = {t for t in set(toks) if len(t) == 1 and t not in _ONE_CHAR}
        if illegal:
            pos = next(i for i, t in enumerate(toks) if t in illegal)
            raise self.error(pos, f"unexpected character {toks[pos]!r}",
                             "digit, variable or operator")
        toks.append("")
        self.pos = 0
        self.depth = 0

    def error(self, pos: int, message: str, expected: str) -> ExprSyntaxError:
        """The error at token ``pos``, whose offset is found by rescanning;
        the end of input is at len(text)."""
        match = next(islice(_TOKENS.finditer(self.text), pos, None), None)
        offset = len(self.text) if match is None else match.start()
        return ExprSyntaxError(offset, message, expected)

    def integer(self, pos: int) -> int:
        """The integer literal at token ``pos``; one longer than ``int``
        converts (4,300 digits by default) is a syntax error there."""
        try:
            return int(self.toks[pos])
        except ValueError:
            raise self.error(pos, f"integer literal of {len(self.toks[pos])} digits is too long",
                             "fewer digits") from None

    def parse(self) -> Table:
        acc = self.expression()
        tok = self.toks[self.pos]
        if tok:
            raise self.error(self.pos, f"unexpected {tok!r} after expression",
                             "end of input or operator")
        return acc

    def expression(self) -> Table:
        toks = self.toks
        acc: Table = {}
        sign = 1
        tok = toks[self.pos]
        if tok == "+" or tok == "-":
            self.pos += 1
            sign = -1 if tok == "-" else 1
        while True:
            self.term(acc, sign)
            tok = toks[self.pos]
            if tok != "+" and tok != "-":
                return acc
            self.pos += 1
            sign = -1 if tok == "-" else 1

    def term(self, acc: Table, sign: int) -> None:
        """Add sign times the next term into ``acc``.

        Number and variable factors fold into num/den and one exponent
        vector; parenthesised factors are expanded and multiplied together,
        and that monomial scales their product at the end."""
        toks, index = self.toks, self.index
        pos = self.pos
        num, den = sign, 1
        expo = [0] * len(self.varnames)
        product = None
        while True:
            tok = toks[pos]
            var = index.get(tok)
            table = None
            if var is None:
                if "0" <= tok < ":":  # a token that starts with a digit is an integer
                    n, d = self.integer(pos), 1
                    if toks[pos + 1] == "/":
                        pos += 2
                        if not "0" <= toks[pos] < ":":
                            raise self.error(pos, "fraction denominator must be an integer literal",
                                             "positive integer")
                        d = self.integer(pos)
                        if d == 0:
                            raise self.error(pos, "fraction has zero denominator", "nonzero integer")
                elif tok == "(":
                    self.depth += 1
                    if self.depth > _MAX_NESTING:
                        raise self.error(pos, f"parentheses nested deeper than {_MAX_NESTING}",
                                         "flatter expression")
                    self.pos = pos + 1
                    table = self.expression()
                    pos = self.pos
                    if toks[pos] != ")":
                        raise self.error(pos, "expected ')'", ")")
                    self.depth -= 1
                elif tok[:1].isalpha():
                    raise self.error(pos, f"unknown variable {tok!r}", ", ".join(self.varnames))
                else:
                    what = repr(tok) if tok else "end of input"
                    raise self.error(pos, f"unexpected {what}", "number, variable or '('")
            pos += 1
            k = 1
            if toks[pos] == "^":
                pos += 1
                if not "0" <= toks[pos] < ":":
                    raise self.error(pos, "exponent must be a non-negative integer literal",
                                     "non-negative integer")
                k = self.integer(pos)
                pos += 1
            if var is not None:
                expo[var] += k
            elif table is None:
                num *= n if k == 1 else n ** k
                den *= d if k == 1 else d ** k
            else:
                if k != 1:
                    table = _power_table(table, k, len(expo))
                product = table if product is None else _product_table(product, table)
            if toks[pos] != "*":
                break
            pos += 1
        self.pos = pos
        if not num:
            return
        c = num if den == 1 else Fraction(num, den)
        m = tuple(expo)
        if product is None:
            product = {m: c}
        elif c != 1 or any(m):
            product = {tuple(map(add, mm, m)): c * v for mm, v in product.items()}
        _add_into(acc, product)


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
    unit coefficients elided next to variables, numbers at any length.  The
    output parses back to ``f`` under the matching ambient, unless it holds
    a literal over 4,300 digits, which the parser rejects."""
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
        num = str(Decimal(mag.numerator))  # Decimal, unlike str(int), has no digit limit
        if mag.denominator != 1:
            num += f"/{Decimal(mag.denominator)}"
        if not pows:
            body = num
        elif mag == 1:
            body = pows
        else:
            body = f"{num}*{pows}"
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)
