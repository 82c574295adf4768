"""Groebner bases and finite-dimensional quotient presentations.

One reducer, by monic basis entries, serves both coefficient fields.
Buchberger's algorithm, with the coprimality and chain criteria, runs on
it, and so does every normal form.  S-pairs wait in a heap ordered by lcm.
The published basis is reduced and monic, so it is unique for the ideal
and the order.  A quotient presentation enumerates the standard monomials
(those outside the leading monomial staircase), gives coordinates of
residue classes over them, and carries the sparse matrices M_k of
multiplication by x_k, read off the basis tails without normal forms.  The
origin test and determinants of polynomial matrices in the quotient run
through these matrices and need no normal forms either.  The reducer and
these kernels compute on kernel values: int residues in [0, p) over F_p,
reduced wherever a sum is formed, and over Q ints where the values are
integral and Fractions otherwise (exact, as the kernels never divide).
``_kernel_values`` converts field values into them, ``field.from_int`` back.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from typing import Sequence

from .poly import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class UnitIdealError(ValueError):
    """The generators span the unit ideal; the quotient algebra is zero."""


class InfiniteQuotientError(ValueError):
    """The quotient is not finite-dimensional."""

    def __init__(self, variable: str):
        super().__init__(
            f"no pure power of {variable!r} among the leading monomials; "
            "the quotient is infinite-dimensional"
        )
        self.variable = variable


# ---------------------------------------------------------------------------
# the monic reducer

class _MonicReducer:
    """Monic reduction on dicts of kernel values over Q (``p == 0``) or F_p.

    Every basis entry ``(leading monomial, terms)`` is monic, so one step
    serves both fields and only F_p adds ``% p``.
    """

    def __init__(self, order: MonomialOrder, p: int):
        self.key = order.key
        self.p = p

    def normalize(self, d: dict) -> dict:
        """The monic multiple of d."""
        if not d:
            return d
        lc = d[max(d, key=self.key)]
        p = self.p
        if not p:
            if lc != 1:
                inv = 1 / Fraction(lc)
                d = {m: c * inv for m, c in d.items()}
            return _kernel_values(d, 0)
        if lc == 1:
            return d
        inv = pow(lc, p - 2, p)
        return {m: c * inv % p for m, c in d.items()}

    def subtract(self, work: dict, c, shift: Monomial, lm: Monomial, terms: dict) -> None:
        """work -= c * x^shift * (terms - x^lm), dropping the cancelled terms."""
        p = self.p
        for gm, gc in terms.items():
            if gm == lm:
                continue
            t = mono_mul(shift, gm)
            nv = work.get(t, 0) - c * gc
            if p:
                nv %= p
            if nv:
                work[t] = nv
            elif t in work:
                del work[t]

    def spoly(self, f: dict, g: dict, f_lm: Monomial, g_lm: Monomial) -> dict:
        lcm_m = mono_lcm(f_lm, g_lm)
        sf = mono_div(lcm_m, f_lm)
        s = {mono_mul(sf, m): c for m, c in f.items() if m != f_lm}
        self.subtract(s, 1, mono_div(lcm_m, g_lm), g_lm, g)
        return s

    def reduce(self, work: dict, entries: Sequence[tuple]) -> dict:
        """Remainder of ``work`` by the monic ``entries``.

        Each term is reduced by the first entry whose leading monomial
        divides it; terms that no entry divides move to the remainder.
        """
        key = self.key
        work = dict(work)
        out: dict = {}
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            for lm, terms in entries:
                if mono_divides(lm, m):
                    self.subtract(work, c, mono_div(m, lm), lm, terms)
                    break
            else:
                out[m] = c
        return out


# ---------------------------------------------------------------------------
# Buchberger

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis with its monomial order.

    The zero ideal has no generators.  The reduced monic basis of an ideal
    is unique for its order, so equal ideals give equal bases.
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    ring: tuple[str, ...]
    field: object

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"<groebner [{gens}]>"


def groebner(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by ``gens``.

    Deterministic for a fixed input and order.  The zero ideal has the
    empty basis.  Raises UnitIdealError when the ideal is the whole ring.
    """
    gens = [g for g in gens if g is not None]
    if not gens:
        raise ValueError("empty generator list")
    ring, fld = gens[0].ring, gens[0].field
    for g in gens:
        if g.ring != ring or g.field != fld:
            raise ValueError("generators from different rings")
    if order is None:
        order = DEGREVLEX
    p = fld.characteristic
    arith = _MonicReducer(order, p)
    key = order.key

    def remainder(d: dict, basis) -> dict:
        return arith.normalize(arith.reduce(d, basis))

    seeds = [arith.normalize(_kernel_values(g.terms, p)) for g in gens if g.terms]
    seeds.sort(key=lambda d: (key(max(d, key=key)), sorted(d.items())))

    entries: list[tuple[Monomial, dict]] = []

    def push(d: dict) -> None:
        lm = max(d, key=key)
        if sum(lm) == 0:
            raise UnitIdealError("the generators span the unit ideal")
        entries.append((lm, d))

    for d in seeds:
        r = remainder(d, entries)
        if r:
            push(r)

    # ``pairs`` answers the chain criterion; ``queue`` pops smallest lcm, then index
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list[tuple] = []

    def add_pair(i: int, j: int) -> None:
        pairs[(i, j)] = lcm_ij = mono_lcm(entries[i][0], entries[j][0])
        heapq.heappush(queue, (key(lcm_ij), i, j))

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            add_pair(i, j)

    while queue:
        _, i, j = heapq.heappop(queue)
        lcm_ij = pairs.pop((i, j))
        lmi, lmj = entries[i][0], entries[j][0]
        if mono_mul(lmi, lmj) == lcm_ij:
            continue  # coprime leading monomials
        skip = False
        for k in range(len(entries)):
            if k == i or k == j:
                continue
            if (
                mono_divides(entries[k][0], lcm_ij)
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                skip = True
                break
        if skip:
            continue
        r = remainder(arith.spoly(entries[i][1], entries[j][1], lmi, lmj), entries)
        if r:
            push(r)
            t = len(entries) - 1
            for k in range(t):
                add_pair(k, t)

    # minimalize: drop generators whose leading monomial is divisible by another's
    keep: list[int] = []
    for i, (lm_i, _) in enumerate(entries):
        redundant = False
        for j, (lm_j, _) in enumerate(entries):
            if i == j:
                continue
            if mono_divides(lm_j, lm_i) and (lm_j != lm_i or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)

    # tail-reduce each survivor against the others
    final = []
    for i in keep:
        r = remainder(entries[i][1], [entries[j] for j in keep if j != i])
        if r:
            final.append(r)
    final.sort(key=lambda d: key(max(d, key=key)), reverse=True)
    basis = tuple(Polynomial(ring, fld, {m: fld.from_int(c) for m, c in d.items()}) for d in final)
    return GroebnerBasis(basis, order, ring, fld)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p supported on standard monomials (a linear projection)."""
    if p.ring != gb.ring or p.field != gb.field:
        raise ValueError("polynomial does not match the basis ring")
    fld, char = gb.field, gb.field.characteristic
    entries = [(g.leading_monomial(gb.order), _kernel_values(g.terms, char)) for g in gb.generators]
    remainder = _MonicReducer(gb.order, char).reduce(_kernel_values(p.terms, char), entries)
    return Polynomial(gb.ring, fld, {m: fld.from_int(c) for m, c in remainder.items()})


# ---------------------------------------------------------------------------
# quotient presentations

@dataclass(frozen=True)
class QuotientPresentation:
    """The algebra K[x]/I presented by a Groebner basis and its standard monomials.

    ``matrices`` holds the multiplication matrices M_1..M_n on the
    standard monomials (see ``multiplication_matrices``); it takes no part
    in equality.
    """

    basis: GroebnerBasis
    standard_monomials: tuple[Monomial, ...]
    dimension: int
    matrices: tuple = dataclass_field(compare=False, repr=False)

    @property
    def ring(self) -> tuple[str, ...]:
        return self.basis.ring

    @property
    def field(self):
        return self.basis.field

    def monomial_index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.standard_monomials)}


@dataclass(frozen=True)
class AlgebraElement:
    """A residue class, stored as coordinates over the standard-monomial basis."""

    coordinates: tuple
    presentation: QuotientPresentation = dataclass_field(compare=False, repr=False, default=None)

    def is_zero(self) -> bool:
        return not any(self.coordinates)

    def scaled(self, factor) -> "AlgebraElement":
        return AlgebraElement(tuple(c * factor for c in self.coordinates), self.presentation)

    def to_polynomial(self) -> Polynomial:
        qp = self.presentation
        terms = {
            m: c
            for m, c in zip(qp.standard_monomials, self.coordinates)
            if c
        }
        return Polynomial(qp.ring, qp.field, terms)

    def __str__(self) -> str:
        return str(self.to_polynomial())


def quotient_presentation(gb: GroebnerBasis) -> QuotientPresentation:
    """Enumerate standard monomials and build the multiplication matrices;
    raises InfiniteQuotientError when the quotient is unbounded."""
    lms = gb.leading_monomials()
    n = len(gb.ring)
    bounds = []
    for i in range(n):
        pure = [
            lm[i]
            for lm in lms
            if lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)
        ]
        if not pure:
            raise InfiniteQuotientError(gb.ring[i])
        bounds.append(min(pure))
    std: list[Monomial] = []
    mono = [0] * n

    def walk(i: int) -> None:
        if i == n:
            m = tuple(mono)
            if not any(mono_divides(lm, m) for lm in lms):
                std.append(m)
            return
        for e in range(bounds[i]):
            mono[i] = e
            walk(i + 1)
        mono[i] = 0

    walk(0)
    std.sort(key=gb.order.key)
    # the border recursion behind the matrices indexes columns by std
    qp = QuotientPresentation(gb, tuple(std), len(std), ())
    return replace(qp, matrices=multiplication_matrices(qp))


def coordinates(p: Polynomial, qp: QuotientPresentation) -> AlgebraElement:
    """Coordinates of the residue class of p over the standard-monomial basis."""
    nf = normal_form(p, qp.basis)
    index = qp.monomial_index()
    coords = [qp.field.zero] * qp.dimension
    for m, c in nf.terms.items():
        if m not in index:
            raise ArithmeticError("normal form left the standard-monomial span")
        coords[index[m]] = c
    return AlgebraElement(tuple(coords), qp)


# ---------------------------------------------------------------------------
# multiplication matrices

def multiplication_matrices(qp: QuotientPresentation) -> tuple[tuple[dict, ...], ...]:
    """Sparse matrices M_1..M_n of multiplication by x_k on the standard monomials.

    ``matrices[k][j]`` is column j of M_k, the coordinates ``{i: c}`` of
    x_k * b_j as kernel values: over F_p a residue c in [1, p), over Q an
    ``int`` where c is integral.  The column is a unit vector when x_k * b_j
    is standard.  Otherwise x_k * b_j is a border monomial m; these are
    taken in increasing order.  If m leads a basis generator g, its column
    is that of m - g, the negated tail of g.  Otherwise some m / x_j is a
    smaller border monomial, with column {i: c_i}, and m has the column of
    sum c_i * x_j * b_i, where every x_j * b_i is smaller than m.
    """
    index = qp.monomial_index()
    p = qp.field.characteristic
    lead = dict(zip(qp.basis.leading_monomials(), qp.basis.generators))
    std = qp.standard_monomials
    products = [[b[:k] + (b[k] + 1,) + b[k + 1 :] for b in std] for k in range(len(qp.ring))]
    columns: dict[Monomial, dict] = {m: {i: 1} for m, i in index.items()}
    border = {m for row in products for m in row if m not in index}
    for m in sorted(border, key=qp.basis.order.key):
        if m in lead:
            # c != 0, so p - c is -c over Q and the residue of -c over F_p
            tail = _kernel_values(lead[m].terms, p)
            try:
                column = {index[t]: p - c for t, c in tail.items() if t != m}
            except KeyError:
                raise ArithmeticError("normal form left the standard-monomial span") from None
        else:
            for j in range(len(m)):
                below = m[:j] + (m[j] - 1,) + m[j + 1 :]
                if m[j] and below not in index:
                    break
            column = {}
            for i, c in columns[below].items():
                _add_multiple(column, c, columns[products[j][i]], p)
            if not p:
                column = _kernel_values(column, 0)
        columns[m] = column
    return tuple(tuple(columns[m] for m in row) for row in products)


def _kernel_values(values: dict, p: int) -> dict:
    """The field values of a dict as kernel values: residues over F_p, and
    over Q (``p == 0``) ints where integral and Fractions otherwise."""
    if p:
        return {k: c.residue for k, c in values.items()}
    return {k: c.numerator if c.denominator == 1 else c for k, c in values.items()}


def _add_multiple(out: dict, a, vector: dict, p: int) -> None:
    """out += a * vector for sparse vectors, modulo p if p, dropping zeros."""
    for i, c in vector.items():
        s = out.get(i, 0) + a * c
        if p:
            s %= p
        if s:
            out[i] = s
        else:
            out.pop(i, None)


def matrix_times_vector(columns: Sequence[dict], vector: dict, p: int) -> dict:
    """M * v for a column-sparse matrix and a sparse vector ``{i: c}``, modulo p if p."""
    out: dict = {}
    for j, a in vector.items():
        _add_multiple(out, a, columns[j], p)
    return out


def _monomial_times(qp: QuotientPresentation, mono: Monomial, vector: dict, p: int) -> dict:
    """x^mono * v for a sparse coordinate vector v: mono[k] products with
    each M_k, stopping as soon as the vector is zero."""
    for columns, e in zip(qp.matrices, mono):
        for _ in range(e):
            if not vector:
                return vector
            vector = matrix_times_vector(columns, vector, p)
    return vector


def origin_supported(qp: QuotientPresentation) -> bool:
    """True iff every variable is nilpotent in the quotient.

    In a finite-dimensional commutative algebra a nilpotent element has
    index at most the dimension d, so x_i is nilpotent iff x_i^d * 1 = 0:
    at most d products with the sparse matrix M_i.
    """
    n, p = len(qp.ring), qp.field.characteristic
    return not any(  # the standard monomial 1 comes first
        _monomial_times(qp, (0,) * k + (qp.dimension,) + (0,) * (n - k - 1), {0: 1}, p)
        for k in range(n)
    )


def poly_det(matrix: Sequence[Sequence[Polynomial]], qp: QuotientPresentation) -> AlgebraElement:
    """The determinant of a square polynomial matrix, as an element of the quotient.

    Expansion in minors over column subsets, from the last row up: the
    minor on rows k..n-1 and column set S is the sum over j in S of
    (-1)^t * a_kj * minor(k+1, S - {j}), where t counts the columns of S
    before j.  Each minor is a sparse coordinate vector and an entry acts
    on it term by term through the multiplication matrices, so no
    polynomial leaves the standard-monomial span and no normal form is
    needed.  Zero entries and zero minors are skipped: at most 2^n * n
    entry actions.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for entry in row:
            if entry.ring != qp.ring or entry.field != qp.field:
                raise ValueError("matrix entries do not match the quotient ring")
    fld = qp.field
    p = fld.characteristic
    matrix = [[_kernel_values(entry.terms, p) for entry in row] for row in matrix]
    minors = {0: {qp.monomial_index()[(0,) * len(qp.ring)]: 1}}
    for k in range(n - 1, -1, -1):
        wider: dict[int, dict] = {}
        for used, minor in minors.items():
            sign = 1
            for j, entry in enumerate(matrix[k]):
                if used >> j & 1:
                    sign = -sign
                    continue
                target = wider.setdefault(used | 1 << j, {})
                for m, c in entry.items():
                    shifted = _monomial_times(qp, m, minor, p)
                    _add_multiple(target, c if sign == 1 else -c, shifted, p)
        minors = {cols: vector for cols, vector in wider.items() if vector}
    det = minors.get((1 << n) - 1, {})
    return AlgebraElement(tuple(fld.from_int(det.get(i, 0)) for i in range(qp.dimension)), qp)
