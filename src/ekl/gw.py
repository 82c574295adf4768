"""Classification of nondegenerate symmetric bilinear forms.

Over Q a form is pinned down by rank, signature, discriminant, and the
Hasse symbol at every place (Hasse-Minkowski), so Grothendieck-Witt
equality reduces to comparing that invariant quadruple.  Over an odd
prime field, rank and discriminant square class suffice.

A ``GramForm`` holds kernel values (int residues over F_p; over Q ints
and Fractions) and a scale, and field values appear only in the returned
diagonal.  Forms are diagonalized by exact symmetric congruence, pivot by
pivot in index order.  No step joins two connected components of the
support graph of the entries, so the form is the orthogonal sum of its
components, and each is eliminated alone: over F_p by Schur-complement
updates of residues, over Q by Bareiss's fraction-free elimination of the
component with its denominators cleared, whose pivots are the ratios
D_{k+1}/D_k of leading minors.  The diagonal is the same, entry for
entry, as that of one elimination of the whole form on field values.  Each
entry is multiplied by the scale once at the end.  Over Q each distinct
square class is factored once, for the places.  The Hasse symbol
at v is the running product prod_{i<j} (a_i, a_j)_v = prod_j (d_j, a_j)_v
over the prefixes d_j = a_1...a_{j-1}, kept squarefree by a*b/gcd(a,b)^2
without factoring; the last prefix is the discriminant.  A run of m equal
classes a adds (d, a)^m (a, -1)^(m(m-1)/2).  All Hilbert symbols come from
one core on squarefree integers with the standard tame and wild formulas.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .scalar import (
    PRIMALITY_LIMIT,
    PrimeField,
    PrimeFieldElement,
    SquareClass,
    factorize,
    is_odd_prime,
    legendre,
    squarefree_part,
    squarefree_product,
)

#: Key for the real place in Hasse symbol maps; finite places are primes.
REAL_PLACE = "inf"


class DegenerateFormError(ValueError):
    """The symmetric form has a radical; no GW class exists."""


@dataclass(frozen=True)
class GramForm:
    """The symmetric form scale * entries over Q or F_p.

    The entries and the scale are kernel values: ints and Fractions over
    Q, int residues over F_p.
    """

    entries: tuple[tuple, ...]
    field: object
    scale: object = 1

    def __post_init__(self) -> None:
        entries = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", entries)
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("Gram matrix is not square")
        if any(row != column for row, column in zip(entries, zip(*entries))):
            raise ValueError("Gram matrix is not symmetric")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field=None) -> "GramForm":
        """A form read from numbers, rational strings or field values."""
        from .scalar import QQ

        field = field if field is not None else QQ
        if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError("a Gram matrix is an array of rows, each an array of entries")
        if any(isinstance(v, bool) for row in rows for v in row):
            raise ValueError("Gram entries are numbers or rational strings, not booleans")
        # entries are read with Fraction() as over Q ("1/3", 0.5, 0.1 as 1/10), then reduced mod p
        rows = [[str(v) if isinstance(v, float) else v for v in row] for row in rows]
        if isinstance(field, PrimeField):
            return cls([[_element(v, field).residue for v in row] for row in rows], field)
        return cls([[Fraction(v) for v in row] for row in rows], field)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def field_entries(self) -> tuple[tuple, ...]:
        """The entries of the form, scale included, as field values."""
        fld, scale, zero = self.field, self.scale, self.field.zero
        return tuple(tuple(fld.from_int(scale * a) if a else zero for a in row) for row in self.entries)


def diagonalize(g: GramForm) -> list:
    """Diagonal of a congruent diagonal form, in index order, as field
    values: the pivots of symmetric elimination of ``g.entries`` in index
    order, each times ``g.scale`` (scaling a form scales its pivots).

    No step of the elimination joins two connected components of the
    support graph of the entries, so each component is eliminated alone,
    its indices in order.  A zero pivot with a nonzero partner is repaired
    by b_k <- b_k +- b_partner (``_repair``).  Over F_p the elimination
    runs on residues (``_residue_pivots``), over Q on ints by Bareiss's
    fraction-free elimination (``_bareiss_pivots``)."""
    p, m = g.field.characteristic, g.entries
    diag: list = [None] * g.dimension
    for part in _components(m):
        block = [[m[i][j] for j in part] for i in part]
        for i, d in zip(part, _residue_pivots(block, p) if p else _bareiss_pivots(block)):
            diag[i] = d
    return [g.field.from_int(d * g.scale) for d in diag]


def _components(m) -> list[list[int]]:
    """The connected components of the support graph of the symmetric
    matrix m (i ~ j when m[i][j] != 0), each ascending, by a union-find
    over the nonzero entries above the diagonal."""
    n = len(m)
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(m):
        for j in compress(range(i + 1, n), row[i + 1 :]):
            a, b = root(i), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    parts: dict[int, list[int]] = {}
    for i in range(n):
        parts.setdefault(root(i), []).append(i)
    return list(parts.values())


def _repair(m: list[list], k: int, p: int) -> None:
    """b_k <- b_k + unit * b_partner for a zero pivot m[k][k], with the
    partner the first j > k with m[k][j] != 0 and the unit 1 or -1, the
    first that gives a nonzero pivot (char != 2 guarantees one does).  Only
    rows and columns from k on are kept up to date."""
    row, n = m[k], len(m)
    partner = next((j for j in range(k + 1, n) if row[j]), None)
    if partner is None:
        raise DegenerateFormError("zero row in the remaining block")
    other = m[partner]
    for unit in (1, -1):
        candidate = row[k] + other[partner] + 2 * row[partner] * unit
        if candidate % p if p else candidate:
            break
    else:
        raise DegenerateFormError("could not produce a nonzero pivot")
    for t in range(k, n):
        row[t] += other[t] * unit
    for t in range(k, n):
        m[t][k] += m[t][partner] * unit


def _residue_pivots(m: list[list[int]], p: int) -> list[int]:
    """Pivots of symmetric elimination of residues modulo p: m[i][t] -=
    (m[k][i] / m[k][k]) * m[k][t] for k < i <= t, over the nonzero entries
    of row k, mirrored into m[t][i] and reduced."""
    n = len(m)
    diag = []
    for k in range(n):
        row = m[k]
        if not row[k]:
            _repair(m, k, p)
        pivot = row[k]
        diag.append(pivot)
        inverse = pow(pivot, -1, p)
        support = [t for t in range(k + 1, n) if row[t]]
        for a, i in enumerate(support):
            factor = row[i] * inverse
            row_i = m[i]
            for t in support[a:]:
                row_i[t] = m[t][i] = (row_i[t] - factor * row[t]) % p
    return diag


def _bareiss_pivots(m: list[list]) -> list[Fraction]:
    """Pivots of symmetric elimination of a block of ints and Fractions,
    by Bareiss's fraction-free elimination of L * m, for L the lcm of the
    denominators.  After step k the remaining entries are D_{k+1} times
    those of the Schur complement, D_k being the k-th leading minor of L * m,
    so each update (D_{k+1} a - b c) / D_k divides exactly and the pivot is
    D_{k+1} / (D_k L).  A repair is a unimodular congruence of the rows and
    columns not yet eliminated, so it leaves D_1 ... D_k as they are."""
    scale = math.lcm(*(a.denominator for row in m for a in row))
    if scale > 1:
        m = [[a.numerator * (scale // a.denominator) for a in row] for row in m]
    n = len(m)
    diag = []
    previous = 1
    for k in range(n):
        row = m[k]
        if not row[k]:
            _repair(m, k, 0)
        pivot = row[k]
        diag.append(Fraction(pivot, previous * scale))
        tail = row[k + 1 :]
        for i in range(k + 1, n):
            row_i, a = m[i], row[i]
            if a:
                row_i[k + 1 :] = [(pivot * x - a * y) // previous for x, y in zip(row_i[k + 1 :], tail)]
            elif pivot != previous:
                row_i[k + 1 :] = [pivot * x // previous for x in row_i[k + 1 :]]
        previous = pivot
    return diag


# ---------------------------------------------------------------------------
# Hilbert symbols over Q

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
    if place != REAL_PLACE and not (
        isinstance(place, int) and (place == 2 or is_odd_prime(place))
    ):
        raise ValueError(
            f"invalid place {place!r}: not 2, {REAL_PLACE!r} "
            f"or an odd prime below {PRIMALITY_LIMIT}"
        )
    return _hilbert(squarefree_part(a), squarefree_part(b), place)


def _hilbert(A: int, B: int, place) -> int:
    """(A, B)_v for squarefree integers A, B at a place already known to be
    REAL_PLACE, 2 or an odd prime."""
    if place == REAL_PLACE:
        return -1 if A < 0 and B < 0 else 1
    p = place
    # A = p^alpha u and B = p^beta w with p-units u, w (A, B squarefree)
    alpha, beta = A % p == 0, B % p == 0
    u = A // p if alpha else A
    w = B // p if beta else B
    if p == 2:
        exponent = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    # (-1|p)^(alpha beta) (u|p)^beta (w|p)^alpha as one Legendre symbol
    t = (-1 if alpha and beta else 1) * (u if beta else 1) * (w if alpha else 1)
    return 1 if pow(t % p, (p - 1) // 2, p) == 1 else -1


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
    """GW class of the diagonal form <entries>.  Over F_p an int entry is
    read as its residue; other entries are field elements or rationals
    (read by ``from_str``)."""
    if isinstance(field, PrimeField):
        p = field.p
        residues = [e % p if type(e) is int else _element(e, field).residue for e in entries]
        if 0 in residues:
            raise DegenerateFormError("zero diagonal entry over a prime field")
        disc = 1
        for r in residues:
            disc = disc * r % p
        return GWClass(
            field=field,
            diagonal=tuple(sorted(residues)),
            rank=len(residues),
            disc_legendre=legendre(disc, p),
        )
    classes = []
    for e in entries:
        e = Fraction(e)
        if e == 0:
            raise DegenerateFormError("zero diagonal entry")
        classes.append(SquareClass.of(e))
    return _rational_class(classes, field)


def _element(value, field: PrimeField) -> PrimeFieldElement:
    """value itself, if an element of F_p, or a rational read by ``from_str``;
    ValueError for an element of another prime field."""
    if not isinstance(value, PrimeFieldElement):
        return field.from_str(value)
    if value.modulus != field.p:
        raise ValueError(f"{value} is an element of F_{value.modulus}, not of F_{field.p}")
    return value


def _rational_class(classes: list, field) -> GWClass:
    counts = Counter(c.rep for c in classes)
    hasse, disc = _hasse_and_discriminant(counts, _places(counts))
    return GWClass(
        field=field,
        diagonal=tuple(sorted(classes)),
        rank=len(classes),
        discriminant=SquareClass(disc),
        signature=sum(m if a > 0 else -m for a, m in counts.items()),
        hasse=hasse,
    )


def _places(reps: Iterable[int]) -> set:
    """REAL_PLACE, 2 and the primes dividing the given squarefree integers,
    each distinct integer factored once."""
    places: set = {2, REAL_PLACE}
    for a in set(reps):
        places.update(factorize(abs(a)))
    return places


def _hasse_and_discriminant(counts: dict, places) -> tuple[tuple, int]:
    """Nontrivial Hasse symbols and the discriminant's squarefree
    representative of the diagonal form with counts[a] entries of each
    squarefree class a; ``places`` must hold every prime dividing a class."""
    runs = []
    disc = 1
    for a, m in counts.items():
        runs.append((disc, a, m))
        if m % 2:
            disc = squarefree_product(disc, a)
    hasse = []
    for v in sorted(places, key=lambda x: (isinstance(x, str), x)):
        s = 1
        for d, a, m in runs:
            if m % 2:
                s *= _hilbert(d, a, v)
            if m * (m - 1) // 2 % 2:
                s *= _hilbert(a, -1, v)
        if s != 1:
            hasse.append((v, s))
    return tuple(hasse), disc


def classify(g: GramForm) -> GWClass:
    """Diagonalize a Gram matrix and compute its GW invariants over its field."""
    return classify_diagonal(diagonalize(g), g.field)


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
    return _diagonal_class(c1.diagonal + c2.diagonal, c1.field)


def gw_mul(c1: GWClass, c2: GWClass) -> GWClass:
    """The product class, from the pairwise products of the diagonal square
    classes (no entry is factored again); c2 itself when c1 = <square>."""
    if c1.field != c2.field:
        raise ValueError("GW classes over different fields")
    if c1.rank == 1 and (c1.disc_legendre or c1.discriminant.rep) == 1:
        return c2
    return _diagonal_class([x * y for x in c1.diagonal for y in c2.diagonal], c1.field)


def _diagonal_class(entries, field) -> GWClass:
    """The class of a diagonal of residues over F_p or square classes over Q."""
    if isinstance(field, PrimeField):
        return classify_diagonal(entries, field)
    return _rational_class(list(entries), field)


def unit_class(u, field) -> GWClass:
    return classify_diagonal([u], field)


def hyperbolic_class(field) -> GWClass:
    return units_class(1, 1, (), field)


def units_class(ones: int, minus_ones: int, residual: Sequence[SquareClass], field) -> GWClass:
    classes = [SquareClass(1)] * ones + [SquareClass(-1)] * minus_ones + list(residual)
    if isinstance(field, PrimeField):
        return classify_diagonal([sq.rep for sq in classes], field)
    return _rational_class(classes, field)


def fold_class(c: GWClass, hyperbolic: int, unit) -> GWClass:
    """The class <unit> * (hyperbolic * H + c), from c's diagonal in one
    pass; unit is a nonzero field value.

    Equal in every field, the diagonal included, to ``gw_mul(unit_class(unit),
    gw_add(units_class(hyperbolic, hyperbolic, ()), c))``: H adds <1> and
    <-1>, and the diagonal is multiplied by unit only when unit is not a
    square, as ``gw_mul`` does.  c itself when there is nothing to fold.
    """
    field = c.field
    if isinstance(field, PrimeField):
        p = field.p
        u = _element(unit, field).residue
        square = legendre(u, p) == 1
        if square and not hyperbolic:
            return c
        diagonal = [1] * hyperbolic + [p - 1] * hyperbolic + list(c.diagonal)
        return classify_diagonal(diagonal if square else [u * d % p for d in diagonal], field)
    u = 1 if unit == 1 else squarefree_part(unit)
    if u == 1 and not hyperbolic:
        return c
    classes = [SquareClass(1)] * hyperbolic + [SquareClass(-1)] * hyperbolic + list(c.diagonal)
    if u != 1:
        classes = [SquareClass(squarefree_product(u, d.rep)) for d in classes]
    return _rational_class(classes, field)


# ---------------------------------------------------------------------------
# recognizing p<1> + q<-1> + r<alpha>

@dataclass(frozen=True)
class UnitsShape:
    ones: int
    minus_ones: int
    residual: tuple[SquareClass, ...]


def recognize_units(c: GWClass) -> UnitsShape | None:
    """Maximal decomposition c = p<1> + q<-1> + r<alpha> (single square
    class alpha), found by invariant matching; None over F_p or when no shape fits.

    Maximality means the residual is as short as possible, so an alpha of
    1 or -1 is absorbed into the unit counts.
    """
    if isinstance(c.field, PrimeField):
        return None
    n, s = c.rank, c.signature
    # every alpha tried is built from primes of c, so c's places suffice
    places = _places(sq.rep for sq in c.diagonal) | {v for v, _ in c.hasse or ()}
    nontrivial = {v for v, t in c.hasse or () if t != 1}

    def fits(p: int, q: int, r: int, alpha: int) -> bool:
        # rank and signature agree by construction of p and q
        counts = Counter({1: p, -1: q})
        counts[alpha] += r
        hasse, disc = _hasse_and_discriminant(counts, places)
        return disc == c.discriminant.rep and {v for v, _ in hasse} == nontrivial

    for r in range(n + 1):
        for alpha_sign in (1, -1) if r else (1,):
            p2 = n - r + (s - r * alpha_sign)
            if p2 % 2 or p2 < 0:
                continue
            p = p2 // 2
            q = n - r - p
            if q < 0:
                continue
            for alpha in _alpha_candidates(c, q, r, alpha_sign) if r else (1,):
                if fits(p, q, r, alpha):
                    return UnitsShape(p, q, (SquareClass(alpha),) * r)
    return None


def _alpha_candidates(c: GWClass, q: int, r: int, alpha_sign: int) -> list[int]:
    seen: list[int] = []

    def add(value: int) -> None:
        if value != 0 and (value > 0) == (alpha_sign > 0) and value not in seen:
            seen.append(value)

    if r % 2 == 1:
        # the discriminant pins alpha: disc = (-1)^q * alpha^r
        add(c.discriminant.rep * (-1) ** q)
    else:
        # alpha is invisible to the discriminant; when the Hasse symbols
        # depend on it (odd exponent), rebuild it from the required
        # character (alpha, -1)_v = c's Hasse symbol at each odd place v
        # (p<1> + q<-1> is trivial there), else only +-1 can occur.
        exponent = (q * r + r * (r - 1) // 2) % 2
        if exponent == 0:
            add(alpha_sign)
        else:
            odd = {v for v, t in c.hasse or () if v not in (2, REAL_PLACE) and t == -1}
            # (alpha, -1)_v = -1 needs -1 a nonsquare mod v
            if all(v % 4 == 3 for v in odd):
                for extra in (1, 2):
                    add(alpha_sign * extra * math.prod(odd))
    for sq in c.diagonal:
        add(sq.rep)
    return seen


# ---------------------------------------------------------------------------
# rendering

def render_class(c: GWClass) -> str:
    """Named form "p<1> + q<-1> [+ r<alpha>]" when the shape is recognized
    with some unit content, otherwise the diagonal rendering."""
    return render_units(c, recognize_units(c))


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
