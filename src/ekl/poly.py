"""Sparse multivariate polynomials over a pluggable exact field.

Monomials are exponent tuples (one slot per ring variable).  Inside the
library a polynomial is a ``{monomial: kernel value}`` dict over a ring and
field held beside it: int residues in [1, p) over F_p; over Q ints where
integral and Fractions otherwise (see ``localg``).  The expression parser
(``parse_poly``) returns such a dict, and the same sparse term kernel
(``_add_product``, ``_product``) serves the parser, the quotient-map
builders and the solved-coordinate substitution of ``degree.strip_solved``.
Determinants of polynomial matrices are taken in the quotient algebra
(``localg.poly_det``), on kernel values too.

``Polynomial`` is the boundary record with field values: a ring, a field
and a term map.  It is made where a polynomial is printed (``from_kernel``
then ``format_poly``) and for the published Groebner generators and normal
forms; ``_kernel_values`` reads one back into kernel values.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .scalar import QQ, PrimeField, RationalField

Monomial = tuple[int, ...]

Field = RationalField | PrimeField


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


class MonomialOrder:
    """A total monomial order compatible with multiplication.

    ``kind`` is "degrevlex" or "lex", both on the ring's declared variable
    order.
    """

    def __init__(self, kind: str = "degrevlex"):
        if kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        self.kind = kind

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        return (sum(m), tuple(-e for e in reversed(m)))

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def sorted(self, monomials: Iterable[Monomial], reverse: bool = False) -> list[Monomial]:
        return sorted(monomials, key=self.key, reverse=reverse)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class Polynomial:
    """A polynomial over ``field`` in ``ring`` variables, with field values:
    the record that is printed and published, with no arithmetic."""

    __slots__ = ("ring", "field", "terms")

    def __init__(self, ring: Sequence[str], field: Field, terms: Mapping[Monomial, object]):
        self.ring = tuple(ring)
        self.field = field
        n = len(self.ring)
        clean: dict[Monomial, object] = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ValueError("monomial length does not match ring")
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return order.max(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.field, frozenset(self.terms.items())))

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<poly {format_poly(self)}>"


# ---------------------------------------------------------------------------
# canonical printing

def format_monomial(mono: Monomial, ring: Sequence[str]) -> str:
    """``x^2*y`` style rendering; the constant monomial prints as ``1``."""
    if not any(mono):
        return "1"
    parts = []
    for name, e in zip(ring, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Canonical rendering: decreasing monomial order, '^' powers, no implicit products.

    The output re-parses to the same polynomial.  A leading coefficient of
    minus one is printed as ``-1*``, which also reads right where unary
    minus binds tighter than ``^``.
    """
    if not p.terms:
        return "0"
    monos = DEGREVLEX.sorted(p.terms, reverse=True)
    chunks: list[str] = []
    for i, mono in enumerate(monos):
        coeff = p.terms[mono]
        mstr = format_monomial(mono, p.ring) if any(mono) else ""
        negative = _is_negative(coeff)
        mag = -coeff if negative else coeff
        mag_str = str(mag)
        if not mstr:
            body = mag_str
        elif mag_str == "1":
            body = mstr
        else:
            body = f"{mag_str}*{mstr}"
        if i == 0:
            if negative:
                # "-1*x^2" reads the same whichever of '-' and '^' binds first
                chunks.append(f"-{mag_str}*{mstr}" if mstr else f"-{mag_str}")
            else:
                chunks.append(body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


def _is_negative(coeff) -> bool:
    if isinstance(coeff, (int, Fraction)):
        return coeff < 0
    return False  # prime field residues print as [0, p)


# ---------------------------------------------------------------------------
# expression parsing

class ParseError(ValueError):
    """Syntax or name error in a polynomial expression; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_OPS = set("+-*^()/")


def _tokenize(text: str):
    tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent for:

    expr   := term (('+'|'-') term)* ;
    term   := factor ('*' factor)* ;
    factor := '-' factor | base ('^' nat)? ;
    base   := rational | ident | '(' expr ')' ;
    rational := nat ('/' nat)? ;

    Unary minus binds looser than '^', as in Python: ``-x^2`` is -(x^2).
    Each rule returns a fresh ``{monomial: kernel value}`` dict.
    """

    def __init__(self, text: str, ring: Sequence[str], field: Field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = tuple(ring)
        self.field = field
        self.p = field.characteristic
        self.one = (0,) * len(self.ring)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position)
        return self.advance()

    def parse(self) -> dict:
        result = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", position)
        return result if self.p else _canonical(result)

    def expr(self) -> dict:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                _add_product(result, 1 if value == "+" else -1, None, self.term(), self.p)
            else:
                return result

    def term(self) -> dict:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = _product(result, self.factor(), self.p)
            else:
                return result

    def factor(self) -> dict:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            p = self.p  # p - c is -c over Q and the residue of -c over F_p
            return {m: p - c for m, c in self.factor().items()}
        result = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            k, v, position = self.peek()
            if k != "nat":
                raise ParseError("expected a natural number exponent", position)
            self.advance()
            n = int(v)
            power = result if n else self.constant(1)
            for _ in range(n - 1):
                power = _product(power, result, self.p)
            result = power
        return result

    def constant(self, value) -> dict:
        if self.p:
            value %= self.p
        return {self.one: value} if value else {}

    def base(self) -> dict:
        kind, value, position = self.peek()
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "nat":
            self.advance()
            num = int(value)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.advance()
                k2, v2, pos2 = self.peek()
                if k2 == "ident":
                    raise ParseError("division by a non-constant", pos2)
                if k2 != "nat":
                    raise ParseError("expected a natural number denominator", pos2)
                self.advance()
                den = int(v2)
                if den == 0:
                    raise ParseError("zero denominator", pos2)
                value, p = Fraction(num, den), self.p
                if p and value.denominator % p == 0:
                    raise ParseError(f"denominator {den} is zero in {self.field!r}", pos2)
                return self.constant(value.numerator * pow(value.denominator, -1, p) if p else value)
            return self.constant(num)
        if kind == "ident":
            if value not in self.ring:
                raise ParseError(f"unknown variable {value!r}", position)
            self.advance()
            return {tuple(1 if v == value else 0 for v in self.ring): 1}
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", position)


def _add_product(out: dict, c, shift: Monomial | None, terms: dict, p: int) -> None:
    """out += c * x^shift * terms on kernel values (x^shift = 1 when
    ``shift`` is None), modulo p if p, dropping the terms that cancel."""
    for m, a in terms.items():
        if shift is not None:
            m = mono_mul(shift, m)
        s = out.get(m, 0) + c * a
        if p:
            s %= p
        if s:
            out[m] = s
        else:
            out.pop(m, None)


def _product(a: dict, b: dict, p: int) -> dict:
    """a * b on kernel values, modulo p if p."""
    out: dict = {}
    for m, c in a.items():
        _add_product(out, c, m if any(m) else None, b, p)
    return out


def _canonical(values: dict) -> dict:
    """Rational values of a dict as kernel values over Q: ints where
    integral, Fractions otherwise."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in values.items()}


def _kernel_values(values: dict, p: int) -> dict:
    """The field values of a dict as kernel values: residues over F_p, and
    over Q (``p == 0``) ints where integral and Fractions otherwise."""
    if p:
        return {k: c.residue for k, c in values.items()}
    return _canonical(values)


def from_kernel(ring: Sequence[str], field: Field, terms: dict) -> Polynomial:
    """The polynomial of a ``{monomial: kernel value}`` dict without zeros."""
    from_int = field.from_int
    return Polynomial(ring, field, {m: from_int(c) for m, c in terms.items()})


def parse_poly(text: str, ring: Sequence[str], field: Field = QQ) -> dict:
    """Parse an expression over the given ring into a ``{monomial: kernel
    value}`` dict; raises ParseError with a position."""
    return _Parser(text, ring, field).parse()


@functools.lru_cache(maxsize=1024)  # MapSpec checks every name of every map it builds
def is_identifier(name: str) -> bool:
    """Whether ``name`` is exactly one identifier token of the expression syntax."""
    try:
        return [tok[:2] for tok in _tokenize(name)] == [("ident", name), ("end", "")]
    except ParseError:
        return False
