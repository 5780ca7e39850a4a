"""Parser and printer for the polynomial text grammar.

A polynomial is a sum of terms ``[+-] c*v1^e1*...*vk^ek`` where the
coefficient c is an integer or p/q, an omitted coefficient means 1 and an
omitted exponent means 1.  Variables must be declared up front.  Errors carry
1-based line/column positions.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .scalars import QQ, as_scalar, exact_div


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


_SIGNS = "+-"


class _Tokens:
    """Scanner producing (kind, text, line, col); kinds: int, name, op, end."""

    def __init__(self, text: str):
        self.toks = []
        line, col = 1, 1
        i = 0
        last_end = (1, 1)
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch in " \t\r":
                col += 1
                i += 1
                continue
            start = (line, col)
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j], line, col))
                col += j - i
                i = j
            elif ch in "+-*/^":
                self.toks.append(("op", ch, line, col))
                col += 1
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            last_end = (line, col)
        self.toks.append(("end", "", last_end[0], last_end[1]))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "end":
            self.pos += 1
        return t


def parse_poly(text: str, variables, ring=QQ) -> Poly:
    """Parse text into a Poly over the declared variables."""
    variables = tuple(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    toks = _Tokens(text)
    result = Poly.zero(variables, ring)

    def parse_term(sign: int) -> Poly:
        kind, val, line, col = toks.peek()
        coeff = Fraction(sign)
        exps = [0] * len(variables)
        saw_factor = False
        if kind == "int":
            toks.next()
            num = int(val)
            den = 1
            k2, v2, l2, c2 = toks.peek()
            if (k2, v2) == ("op", "/"):
                toks.next()
                k3, v3, l3, c3 = toks.next()
                if k3 != "int":
                    raise ParseError("expected denominator after '/'", l3, c3)
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator", l3, c3)
            coeff *= Fraction(num, den)
            saw_factor = True
            k2, v2, _, _ = toks.peek()
            if (k2, v2) == ("op", "*"):
                toks.next()
                saw_factor = False  # a variable factor must follow
        while True:
            kind, val, line, col = toks.peek()
            if kind == "name":
                toks.next()
                if val not in var_index:
                    raise ParseError(f"undeclared variable {val!r}", line, col)
                e = 1
                k2, v2, _, _ = toks.peek()
                if (k2, v2) == ("op", "^"):
                    toks.next()
                    k3, v3, l3, c3 = toks.next()
                    if k3 != "int":
                        raise ParseError("expected integer exponent", l3, c3)
                    e = int(v3)
                exps[var_index[val]] += e
                saw_factor = True
                k2, v2, _, _ = toks.peek()
                if (k2, v2) == ("op", "*"):
                    toks.next()
                    saw_factor = False
                    continue
                break
            if not saw_factor:
                raise ParseError("expected a term", line, col)
            break
        return Poly.monomial(exact_div(as_scalar(coeff.numerator, ring),
                                       coeff.denominator),
                             exps, variables, ring)

    # leading sign
    kind, val, line, col = toks.peek()
    sign = 1
    if kind == "op" and val in _SIGNS:
        toks.next()
        sign = -1 if val == "-" else 1
    result = result + parse_term(sign)
    while True:
        kind, val, line, col = toks.next()
        if kind == "end":
            break
        if kind == "op" and val in _SIGNS:
            sign = -1 if val == "-" else 1
            result = result + parse_term(sign)
        else:
            raise ParseError(f"expected '+' or '-', got {val!r}", line, col)
    return result


def parse_poly_file(path, variables, ring=QQ) -> Poly:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poly(fh.read(), variables, ring)
