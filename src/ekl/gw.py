"""Classification of nondegenerate symmetric bilinear forms.

Over Q a form is pinned down by rank, signature, discriminant, and the
Hasse symbol at every place (Hasse-Minkowski), so Grothendieck-Witt
equality reduces to comparing that invariant quadruple.  Over an odd
prime field, rank and discriminant square class suffice.  Forms are
diagonalized by exact symmetric congruence; Hilbert symbols use the
standard tame and wild formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .scalar import (
    PrimeField,
    PrimeFieldElement,
    SquareClass,
    factorize,
    is_odd_prime,
    legendre,
    squarefree_part,
)

#: Key for the real place in Hasse symbol maps; finite places are primes.
REAL_PLACE = "inf"


class DegenerateFormError(ValueError):
    """The symmetric form has a radical; no GW class exists."""


@dataclass(frozen=True)
class GramForm:
    """A symmetric matrix over Q or F_p."""

    entries: tuple[tuple, ...]
    field: object

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field=None) -> "GramForm":
        from .scalar import QQ

        field = field if field is not None else QQ
        conv = (
            (lambda v: Fraction(v))
            if not isinstance(field, PrimeField)
            else (lambda v: v if isinstance(v, PrimeFieldElement) else field.from_int(int(v)))
        )
        entries = tuple(tuple(conv(v) for v in row) for row in rows)
        return cls.from_field_entries(entries, field)

    @classmethod
    def from_field_entries(cls, entries, field) -> "GramForm":
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("Gram matrix is not square")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix is not symmetric")
        return cls(entries, field)

    @property
    def dimension(self) -> int:
        return len(self.entries)


def diagonalize(g: GramForm) -> list:
    """Diagonal of a congruent diagonal matrix, by symmetric row/column
    elimination; a zero diagonal pivot with a nonzero off-diagonal partner
    is repaired by the basis change b_i <- b_i + b_j."""
    n = g.dimension
    m = [list(row) for row in g.entries]
    zero = m[0][0] - m[0][0] if n else 0
    diag = []
    for k in range(n):
        if m[k][k] == zero:
            partner = None
            for j in range(k + 1, n):
                if m[k][j] != zero:
                    partner = j
                    break
            if partner is None:
                raise DegenerateFormError("zero row in the remaining block")
            for sign in (1, -1):
                candidate = m[k][k] + m[partner][partner] + (m[k][partner] + m[k][partner]) * _unit(m, sign)
                if candidate != zero:
                    break
            # b_k <- b_k + sign * b_partner  (char != 2 guarantees one sign works)
            for t in range(n):
                m[k][t] = m[k][t] + m[partner][t] * _unit(m, sign)
            for t in range(n):
                m[t][k] = m[t][k] + m[t][partner] * _unit(m, sign)
        pivot = m[k][k]
        if pivot == zero:
            raise DegenerateFormError("could not produce a nonzero pivot")
        diag.append(pivot)
        for i in range(k + 1, n):
            factor = m[k][i] / pivot
            if factor == zero:
                continue
            for t in range(k, n):
                m[i][t] = m[i][t] - factor * m[k][t]
            for t in range(k, n):
                m[t][i] = m[t][i] - factor * m[t][k]
    return diag


def _unit(m, sign: int):
    one = _one_like(m[0][0])
    return one if sign == 1 else -one


def _one_like(value):
    if isinstance(value, PrimeFieldElement):
        return PrimeFieldElement(1, value.modulus)
    return Fraction(1)


# ---------------------------------------------------------------------------
# Hilbert symbols over Q

def _two_adic_split(n: int) -> tuple[int, int]:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def _eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v: 1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over
    the completion at the place (an odd prime, 2, or REAL_PLACE)."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    A = squarefree_part(a)
    B = squarefree_part(b)
    if place == REAL_PLACE:
        return -1 if A < 0 and B < 0 else 1
    if not isinstance(place, int) or place < 2:
        raise ValueError(f"invalid place {place!r}")
    if place == 2:
        alpha, u = _two_adic_split(abs(A))
        beta, w = _two_adic_split(abs(B))
        u = u if A > 0 else -u
        w = w if B > 0 else -w
        exponent = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    if not is_odd_prime(place):
        raise ValueError(f"invalid place {place!r}")
    p = place
    alpha = 1 if A % p == 0 else 0
    beta = 1 if B % p == 0 else 0
    u = A // p if alpha else A
    w = B // p if beta else B
    result = 1
    if alpha and beta:
        result *= legendre(-1, p)
    if beta:
        result *= legendre(u, p)
    if alpha:
        result *= legendre(w, p)
    return result


# ---------------------------------------------------------------------------
# GW classes

@dataclass(frozen=True)
class GWClass:
    """Invariant data of a nondegenerate symmetric bilinear form.

    Over Q: the diagonal square classes, rank, signature, discriminant,
    and the Hasse symbols at every place where they can be nontrivial.
    Over F_p: rank and the Legendre symbol of the discriminant.
    """

    field: object
    diagonal: tuple
    rank: int
    discriminant: SquareClass | None = None
    signature: int | None = None
    hasse: tuple | None = None  # sorted tuple of (place, +-1) pairs, 1s omitted
    disc_legendre: int | None = None  # F_p only

    def hasse_at(self, place) -> int:
        for v, s in self.hasse or ():
            if v == place:
                return s
        return 1

    def __str__(self) -> str:
        return render_class(self)


def classify_diagonal(entries: Iterable, field) -> GWClass:
    """GW class of the diagonal form <entries>."""
    entries = list(entries)
    if isinstance(field, PrimeField):
        residues = []
        for e in entries:
            r = e.residue if isinstance(e, PrimeFieldElement) else int(e) % field.p
            if r == 0:
                raise DegenerateFormError("zero diagonal entry over a prime field")
            residues.append(r)
        disc = 1
        for r in residues:
            disc = disc * r % field.p
        return GWClass(
            field=field,
            diagonal=tuple(sorted(residues)),
            rank=len(residues),
            disc_legendre=legendre(disc, field.p),
        )
    classes = []
    for e in entries:
        e = Fraction(e)
        if e == 0:
            raise DegenerateFormError("zero diagonal entry")
        classes.append(SquareClass.of(e))
    reps = [c.rep for c in classes]
    signature = sum(1 if r > 0 else -1 for r in reps)
    disc = 1
    for r in reps:
        disc *= r
    places: set = {2, REAL_PLACE}
    for r in reps:
        for p in factorize(abs(r)):
            if p != 2:
                places.add(p)
    hasse = []
    for v in sorted(places, key=lambda x: (isinstance(x, str), x)):
        s = 1
        for x, y in combinations(reps, 2):
            s *= hilbert_symbol(x, y, v)
        if s != 1:
            hasse.append((v, s))
    return GWClass(
        field=field,
        diagonal=tuple(sorted(classes)),
        rank=len(classes),
        discriminant=SquareClass.of(disc),
        signature=signature,
        hasse=tuple(hasse),
    )


def classify(g: GramForm, field=None) -> GWClass:
    """Diagonalize a Gram matrix and compute its GW invariants."""
    field = field if field is not None else g.field
    return classify_diagonal(diagonalize(g), field)


def gw_equal(c1: GWClass, c2: GWClass) -> bool:
    """Equality in GW(K) by invariant comparison (complete over Q and F_p)."""
    if c1.field != c2.field:
        raise ValueError("GW classes over different fields")
    if isinstance(c1.field, PrimeField):
        return c1.rank == c2.rank and c1.disc_legendre == c2.disc_legendre
    if c1.rank != c2.rank or c1.signature != c2.signature:
        return False
    if c1.discriminant != c2.discriminant:
        return False
    places = {v for v, _ in c1.hasse or ()} | {v for v, _ in c2.hasse or ()}
    return all(c1.hasse_at(v) == c2.hasse_at(v) for v in places)


def gw_add(c1: GWClass, c2: GWClass) -> GWClass:
    if c1.field != c2.field:
        raise ValueError("GW classes over different fields")
    return classify_diagonal(_diag_values(c1) + _diag_values(c2), c1.field)


def gw_mul(c1: GWClass, c2: GWClass) -> GWClass:
    if c1.field != c2.field:
        raise ValueError("GW classes over different fields")
    values = [x * y for x in _diag_values(c1) for y in _diag_values(c2)]
    return classify_diagonal(values, c1.field)


def _diag_values(c: GWClass) -> list:
    if isinstance(c.field, PrimeField):
        return [c.field.from_int(r) for r in c.diagonal]
    return [Fraction(sq.rep) for sq in c.diagonal]


def unit_class(u, field) -> GWClass:
    return classify_diagonal([u], field)


def hyperbolic_class(field) -> GWClass:
    if isinstance(field, PrimeField):
        return classify_diagonal([field.one, -field.one], field)
    return classify_diagonal([Fraction(1), Fraction(-1)], field)


def scaled_class(c: GWClass, copies: int) -> GWClass:
    values = _diag_values(c) * copies
    return classify_diagonal(values, c.field)


def units_class(ones: int, minus_ones: int, residual: Sequence[SquareClass], field) -> GWClass:
    values = [Fraction(1)] * ones + [Fraction(-1)] * minus_ones + [
        Fraction(sq.rep) for sq in residual
    ]
    return classify_diagonal(values, field)


# ---------------------------------------------------------------------------
# recognizing p<1> + q<-1> + r<alpha>

@dataclass(frozen=True)
class UnitsShape:
    ones: int
    minus_ones: int
    residual: tuple[SquareClass, ...]


def recognize_units(c: GWClass) -> UnitsShape | None:
    """Maximal decomposition c = p<1> + q<-1> + r<alpha> (single square
    class alpha), found by invariant matching; None when no such shape fits.

    Maximality means the residual is as short as possible, so an alpha of
    1 or -1 is absorbed into the unit counts.
    """
    if isinstance(c.field, PrimeField):
        raise ValueError("recognize_units expects a class over Q")
    n, s = c.rank, c.signature
    for r in range(n + 1):
        for alpha_sign in (1, -1) if r else (1,):
            p2 = n - r + (s - r * alpha_sign)
            if p2 % 2 or p2 < 0:
                continue
            p = p2 // 2
            q = n - r - p
            if q < 0:
                continue
            if r == 0:
                candidate = units_class(p, q, (), c.field)
                if gw_equal(candidate, c):
                    return UnitsShape(p, q, ())
                continue
            for alpha in _alpha_candidates(c, p, q, r, alpha_sign):
                residual = (SquareClass(alpha),) * r
                candidate = units_class(p, q, residual, c.field)
                if gw_equal(candidate, c):
                    return UnitsShape(p, q, residual)
    return None


def _alpha_candidates(c: GWClass, p: int, q: int, r: int, alpha_sign: int) -> list[int]:
    seen: list[int] = []

    def add(value: int) -> None:
        if value != 0 and (value > 0) == (alpha_sign > 0) and value not in seen:
            seen.append(value)

    if r % 2 == 1:
        # the discriminant pins alpha: disc = (-1)^q * alpha^r
        forced = squarefree_part(Fraction(c.discriminant.rep * (-1) ** q))
        add(forced)
    else:
        # alpha is invisible to the discriminant; when the Hasse symbols
        # depend on it (odd exponent), rebuild it from the required
        # character chi_v = (alpha, -1)_v, else only +-1 can occur.
        exponent = (q * r + r * (r - 1) // 2) % 2
        if exponent == 0:
            add(alpha_sign)
        else:
            base = units_class(p, q, (), c.field) if p + q else None
            chi: dict = {}
            places = {v for v, _ in c.hasse or ()} | {2, REAL_PLACE}
            if base is not None:
                places |= {v for v, _ in base.hasse or ()}
            possible = True
            odd_part = 1
            for v in places:
                target = c.hasse_at(v) * (base.hasse_at(v) if base else 1)
                chi[v] = target
                if v not in (2, REAL_PLACE) and target == -1:
                    if legendre(-1, v) == 1:
                        possible = False  # (alpha,-1)_v = -1 needs -1 a nonsquare
                    else:
                        odd_part *= v
            if possible:
                for extra in (1, 2):
                    add(alpha_sign * extra * odd_part)
    for sq in c.diagonal:
        add(sq.rep)
    return seen


# ---------------------------------------------------------------------------
# rendering

def render_class(c: GWClass) -> str:
    """Named form "p<1> + q<-1> [+ r<alpha>]" when the shape is recognized
    with some unit content, otherwise the diagonal rendering."""
    shape = None if isinstance(c.field, PrimeField) else recognize_units(c)
    return render_units(c, shape)


def render_units(c: GWClass, shape: UnitsShape | None) -> str:
    """``render_class`` for a class whose shape ``recognize_units`` already
    returned (None over F_p or when no shape fits)."""
    if shape is None or not (shape.ones or shape.minus_ones):
        return render_diagonal(c)
    parts = []
    if shape.ones:
        parts.append(f"{shape.ones}<1>")
    if shape.minus_ones:
        parts.append(f"{shape.minus_ones}<-1>")
    if shape.residual:
        parts.append(f"{len(shape.residual)}<{shape.residual[0].rep}>")
    return " + ".join(parts)


def render_diagonal(c: GWClass) -> str:
    return "⟨" + ",".join(str(d) for d in c.diagonal) + "⟩"
