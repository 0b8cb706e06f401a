"""Parsing and printing of polynomial expressions.

Grammar (recursive descent, expanded to a canonical Polynomial at parse
time):

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := MONOMIAL | base ['^' INT]
    base       := INT ['/' INT] | VAR | '(' expression ')'

Variables are fixed by the ambient: ``x, y`` for ``affine2`` and
``x0, x1, x2`` for ``projective3``.  Multiplication is always explicit
(no ``2x`` or ``xy``), exponents are non-negative integer literals, and
rational literals are written ``p/q``.  Spaces, tabs, carriage returns and
line feeds between tokens are ignored; any other character outside the
grammar (a vertical tab, say) is illegal.  Every failure raises
:class:`ExprSyntaxError` carrying the byte offset of the offending token.

A text is scanned once, by ``findall`` of one regular expression per
ambient; token offsets are recomputed only when an error is reported.  A
MONOMIAL token is a whole canonical monomial, as ``render_poly`` prints
one: an optional ``p`` or ``p/q`` coefficient and ``*``, then each variable
at most once, in ambient order, ``*``-joined, each with an optional ``^k``.
It is taken only where its fine tokens would read as the same factors:
where a factor starts (at the start of the text or after ``+``, ``-``,
``*`` or ``(``), and not before a ``^``.  Every other spelling and every
error takes the fine tokens (integers, names and single characters), so a
message and its offset are those of the fine tokens.

A term folds its factors into one integer numerator, one denominator and
one exponent vector; only a parenthesised factor becomes a term table.
Tables hold integer numerators over one positive denominator per sum, so
the parser builds no rational: ``parse_poly`` rebuilds each coefficient of
its result by ``poly._ratio``, and ``_parse`` hands the table and its
denominator to the CLI's germ (``analyzer._Germ``) as they are.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import islice
from math import gcd, lcm
from operator import add

from .poly import (GRLEX, MonomialOrder, Polynomial, _power_table, _product_table, _ratio,
                   _render_terms)

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


# The fine tokens: an integer literal, a name, or any other single character
# but whitespace, which is an operator or else illegal.  The whitespace
# between tokens is what ``findall`` skips.
_FINE = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")


def _monomial_token(names: tuple[str, ...]) -> str:
    """The pattern of a canonical monomial over ``names``.  It starts where
    a factor starts (so never inside a literal or a name, nor after ``/``,
    ``^`` or whitespace, where the fine tokens would read a denominator or
    an exponent), a variable ends where a name ends, and no ``^`` follows,
    which would bind to the last variable alone."""
    def chain(names):  # one or more of the names, in order, *-joined
        head = rf"{re.escape(names[0])}(?:\^[0-9]+)?(?![A-Za-z0-9_])"
        if len(names) == 1:
            return head
        rest = chain(names[1:])
        return rf"{head}(?:\*(?:{rest}))?|{rest}"
    return rf"(?<![^+\-*(])(?:[0-9]+(?:/[0-9]+)?\*)?(?:{chain(names)})(?![ \t\r\n]*\^)"


@cache
def _tokens(ambient: str) -> re.Pattern:
    """The tokenizer of an ambient: a canonical monomial, or else a fine
    token.  An operator, which no monomial starts with, is tried first.
    Compiled on first use, as a process reads one ambient or two."""
    return re.compile(f"[-+*()]|{_monomial_token(AMBIENTS[ambient])}|{_FINE.pattern}")


_INDEX = {ambient: {name: i for i, name in enumerate(names)} for ambient, names in AMBIENTS.items()}
# The characters a one-character token may be.
_ONE_CHAR = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz+-*^/()")

_MAX_NESTING = 200

# The parser computes on plain term tables (monomial -> nonzero int), each
# the numerators of a sum over one positive denominator, that it owns
# outright, so sums may update them in place; ``_parse`` hands the final one
# on with its denominator.
Table = dict


def _add_into(acc: Table, t: Table) -> None:
    for m, c in t.items():
        s = acc.get(m, 0) + c
        if s:
            acc[m] = s
        else:
            del acc[m]


class _Parser:
    """Recursive descent over the token texts; the end of input is the
    empty token."""

    def __init__(self, text: str, ambient: str):
        self.text = text
        self.tokens = _tokens(ambient)
        self.names = AMBIENTS[ambient]
        self.index = _INDEX[ambient]
        self.toks = toks = self.tokens.findall(text)
        illegal = {t for t in set(toks) if len(t) == 1 and t not in _ONE_CHAR}
        if illegal:
            pos = next(i for i, t in enumerate(toks) if t in illegal)
            raise self.error(pos, f"unexpected character {toks[pos]!r}",
                             "digit, variable or operator")
        toks.append("")
        self.pos = 0
        self.depth = 0

    def error(self, pos: int, message: str, expected: str, within: int = 0) -> ExprSyntaxError:
        """The error ``within`` characters into token ``pos``, whose offset is
        found by rescanning; the end of input is at len(text)."""
        match = next(islice(self.tokens.finditer(self.text), pos, None), None)
        offset = len(self.text) if match is None else match.start() + within
        return ExprSyntaxError(offset, message, expected)

    def integer(self, pos: int, text: str | None = None, within: int = 0) -> int:
        """The integer literal at token ``pos``, or the literal ``text`` found
        ``within`` characters into it; one longer than ``int`` converts (4,300
        digits by default) is a syntax error there."""
        if text is None:
            text = self.toks[pos]
        try:
            return int(text)
        except ValueError:
            raise self.error(pos, f"integer literal of {len(text)} digits is too long",
                             "fewer digits", within) from None

    def denominator(self, pos: int, text: str | None = None, within: int = 0) -> int:
        """``integer``, for the denominator of a fraction, which is nonzero."""
        d = self.integer(pos, text, within)
        if not d:
            raise self.error(pos, "fraction has zero denominator", "nonzero integer", within)
        return d

    def literals(self, pos: int) -> None:
        """Raise the error of the first bad literal of the canonical monomial
        at token ``pos``, at its offset, as its fine tokens would."""
        prev = ""
        for match in _FINE.finditer(self.toks[pos]):
            lit = match.group()
            if lit.isdigit():
                read = self.denominator if prev == "/" else self.integer
                read(pos, lit, match.start())
            prev = lit

    def parse(self) -> tuple[Table, int]:
        result = self.expression()
        tok = self.toks[self.pos]
        if tok:
            raise self.error(self.pos, f"unexpected {tok!r} after expression",
                             "end of input or operator")
        return result

    def expression(self) -> tuple[Table, int]:
        """The next sum: its numerators over the least common denominator of
        its coefficients.  The terms are read first, so each numerator is
        scaled once, to the common denominator of them all."""
        toks = self.toks
        terms = []
        den = sign = 1
        tok = toks[self.pos]
        if tok == "+" or tok == "-":
            self.pos += 1
            sign = -1 if tok == "-" else 1
        while True:
            term = self.term(sign)
            terms.append(term)
            if term[1] != 1:
                den = lcm(den, term[1])
            tok = toks[self.pos]
            if tok != "+" and tok != "-":
                break
            self.pos += 1
            sign = -1 if tok == "-" else 1
        acc: Table = {}
        merged = False  # a product term, or two terms on one monomial
        for num, d, m, product in terms:
            if d != den:
                num *= den // d
            if product is None:
                acc[m] = acc.get(m, 0) + num
            elif num:
                merged = True
                if num != 1 or any(m):
                    product = {tuple(map(add, mm, m)): num * v for mm, v in product.items()}
                if acc:
                    _add_into(acc, product)
                else:  # the parser owns the table: the sum adopts it
                    acc = product
        # Every term is in lowest terms, so den, the lcm of their
        # denominators, is the least common one unless terms merged.
        if den != 1 and (merged or len(acc) < len(terms)):
            g = gcd(den, *acc.values())
            if g != 1:
                acc = {m: c // g for m, c in acc.items()}
                den //= g
        if 0 in acc.values():  # zero terms, or terms that cancel
            acc = {m: c for m, c in acc.items() if c}
        return acc, den

    def term(self, sign: int) -> tuple[int, int, tuple[int, ...], Table | None]:
        """Sign times the next term: num/den times the monomial x^m times the
        product table (None for 1).

        Monomial, number and variable factors fold into num/den and one
        exponent vector; parenthesised factors are expanded and multiplied
        together, and that monomial scales their product in ``expression``."""
        toks, index = self.toks, self.index
        pos = self.pos
        num, den = sign, 1
        expo = [0] * len(self.names)
        product = None
        while True:
            tok = toks[pos]
            if ("*" in tok or "^" in tok) and len(tok) > 1:  # a canonical monomial
                d = 1  # 0 marks a bad literal
                try:
                    if tok[0] <= "9":  # its coefficient comes first
                        c, _, tok = tok.partition("*")
                        n, _, q = c.partition("/")
                        num *= int(n)
                        if q:
                            d = int(q)
                            den *= d
                    for factor in tok.split("*"):
                        name, _, e = factor.partition("^")
                        expo[index[name]] += int(e) if e else 1
                except ValueError:  # a literal over int()'s digit limit
                    d = 0
                if d == 0:
                    self.literals(pos)
                pos += 1  # no ^ follows a monomial token
            else:
                var = index.get(tok)
                table = None
                if var is None:
                    if tok.isdigit():
                        n, d = self.integer(pos), 1
                        if toks[pos + 1] == "/":
                            pos += 2
                            if not "0" <= toks[pos] < ":":
                                raise self.error(pos, "fraction denominator must be an integer literal",
                                                 "positive integer")
                            d = self.denominator(pos)
                    elif tok == "(":
                        self.depth += 1
                        if self.depth > _MAX_NESTING:
                            raise self.error(pos, f"parentheses nested deeper than {_MAX_NESTING}",
                                             "flatter expression")
                        self.pos = pos + 1
                        table, d = self.expression()
                        pos = self.pos
                        if toks[pos] != ")":
                            raise self.error(pos, "expected ')'", ")")
                        self.depth -= 1
                    elif tok[:1].isalpha():
                        raise self.error(pos, f"unknown variable {tok!r}", ", ".join(self.names))
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
                        table, d = _power_table(table, k, len(self.names)), d ** k
                    product = table if product is None else _product_table(product, table)
                    den *= d
            if toks[pos] != "*":
                break
            pos += 1
        self.pos = pos
        if den != 1:
            g = gcd(num, den)
            if g != 1:
                num //= g
                den //= g
        return num, den, tuple(expo), product


def _parse(text: str, ambient: str) -> tuple[Table, int]:
    """The integer term table T and the positive denominator D of an
    expression, which is T/D: D is the least common denominator of its
    coefficients.  The table is the caller's.  Raises as ``parse_poly``."""
    if ambient not in AMBIENTS:
        raise ValueError(f"unknown ambient {ambient!r}; use one of {sorted(AMBIENTS)}")
    return _Parser(text, ambient).parse()


def _polynomial(nvars: int, table: Table, den: int) -> Polynomial:
    """The Polynomial table/den of ``_parse``'s result, adopting the table."""
    if den != 1:
        for m, n in table.items():
            table[m] = _ratio(n, den)
    return Polynomial._from_valid(nvars, table)


def parse_poly(text: str, ambient: str = "affine2") -> Polynomial:
    """Parse an expression into a fully expanded Polynomial.

    ``ambient`` is ``"affine2"`` (variables x, y) or ``"projective3"``
    (variables x0, x1, x2).  Raises ExprSyntaxError on any malformed input.
    """
    table, den = _parse(text, ambient)
    return _polynomial(len(AMBIENTS[ambient]), table, den)


def render_poly(f: Polynomial, order: MonomialOrder = GRLEX) -> str:
    """Canonical string form: terms in strictly decreasing monomial order,
    unit coefficients elided next to variables, numbers at any length.  The
    output parses back to ``f`` under the matching ambient, unless it holds
    a literal over 4,300 digits, which the parser rejects."""
    if f.is_zero():
        return "0"
    if f.nvars not in (2, 3):
        raise ValueError("rendering supports 2 or 3 variables")
    terms = f.terms_dict()
    ordered = sorted(terms, key=order.key, reverse=True)
    return _render_terms(f.nvars, [(m, terms[m]) for m in ordered])
