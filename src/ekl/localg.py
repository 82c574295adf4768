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
``groebner`` takes its generators as ``{monomial: kernel value}`` dicts,
and ``poly_det`` returns the coordinates of a determinant as kernel values.
Field values are made only for the published generators, on first
access to ``GroebnerBasis.generators``, for ``normal_form`` and
``coordinates``, which take and give ``Polynomial``s,
and by ``degree.ekl_degree`` for the elements it reports.

Inside the kernels a monomial is one int (``_Packing``, the packed
exponent vectors of Bachmann and Schoenemann): a field of W bits per
variable whose top bit is a guard, packed so that plain int comparison is
the monomial order.  Under degrevlex the degree, weighted by the order's
weights (all ones for DEGREVLEX), sits in an unbounded field above the
exponent fields, each of which holds the complemented exponent; so the
weights change no exponent field, carry or divisor test.  Under LEX x_0
takes the top field.  A product is one addition, a quotient one
subtraction, and a divisor test one subtraction masked by the guard bits;
an lcm unpacks the fields.  ``max``, ``sort`` and the S-pair heap need
no key function.  Exponent tuples appear only at the boundaries: the
published generators, the standard monomials and the matrices, whose
columns are indexed by position.  Buchberger hands its packed basis to the presentation through
``GroebnerBasis.packed``; the staircase and the matrices read it, so no
basis term is packed twice.  Carry rule: a field holds exponents up to
2^(W-1) - 1.  The first width is the narrowest that holds every input
exponent, from 8 bits up.  Each reduction step checks the product of its
shift with the lcm of the entry's tail, which bounds every product that
step forms; a set guard bit there raises ``_Carry`` and the whole call
reruns at twice the width.  So no carry passes silently, in either order,
and the width is never configured.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .poly import DEGREVLEX, Monomial, MonomialOrder, Polynomial, _canonical, _kernel_values


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
# packed monomials

class _Carry(ArithmeticError):
    """An exponent outgrew the fields of a packing; the call reruns wider."""


class _Packing:
    """Exponent tuples of one order on n variables as ints that compare like it.

    Every variable has a field of ``width`` bits whose top bit is a guard,
    so exponents run up to ``limit = 2^(width-1) - 1``.  Under degrevlex
    with weights w (all ones for DEGREVLEX) a monomial m packs as its
    weighted degree sum_i w_i m_i << (n*width) plus (limit - m_i) in field
    i, x_{n-1} in the top exponent field; the degree field is unbounded
    above them, so the weights change no field, carry or divisor test.
    Under LEX m_i sits in field n-1-i, x_0 in the top field, with no degree
    field.  ``one`` packs the monomial 1 and ``units[i]`` is R(x_i) - R(1),
    which is (w_i << n*width) - (1 << i*width) under degrevlex, so that

        R(a*b) = R(a) + R(b) - one,  R(b/a) = R(b) - R(a) + one,

    and a | b iff every guard bit survives in (R(a) + offset) - R(b).
    """

    __slots__ = ("width", "limit", "shifts", "flip", "units", "one", "guard", "offset")

    def __init__(self, order: MonomialOrder, n: int, width: int):
        self.width = width
        self.limit = limit = (1 << width - 1) - 1
        graded = order.kind == "degrevlex"
        if graded:
            weights = order.weights or (1,) * n
            if len(weights) != n:
                raise ValueError("the order's weights do not match the ring")
            self.shifts = [i * width for i in range(n)]
            self.units = [(w << n * width) - (1 << s) for w, s in zip(weights, self.shifts)]
        else:
            self.shifts = [(n - 1 - i) * width for i in range(n)]
            self.units = [1 << s for s in self.shifts]
        self.flip = limit if graded else 0
        self.one = sum(self.flip << s for s in self.shifts)
        self.guard = sum(limit + 1 << s for s in self.shifts)
        # complemented fields borrow where a_i > b_i; plain ones, after the
        # complement ~x = -1 - x, where b_i < a_i
        self.offset = self.guard if graded else -1

    def pack(self, m: Monomial) -> int:
        if max(m, default=0) > self.limit:
            raise _Carry
        return self.one + sum(map(mul, m, self.units))

    def unpack(self, r: int) -> Monomial:
        flip, limit = self.flip, self.limit
        return tuple((r >> s & limit) ^ flip for s in self.shifts)

    def entry(self, d: dict) -> tuple:
        """``(lm + offset, lm, bound, tail)`` for a monic dict: its leading
        monomial, the lcm of its tail monomials and the tail."""
        lm = max(d)
        tail = {m: c for m, c in d.items() if m != lm}
        bound = self.pack(tuple(map(max, zip((0,) * len(self.shifts), *map(self.unpack, tail)))))
        return lm + self.offset, lm, bound, tail


def _packing(order: MonomialOrder, n: int, top: int) -> _Packing:
    """The narrowest packing, from 8-bit fields up, that holds the exponent ``top``."""
    width = 8
    while (1 << width - 1) <= top:
        width *= 2
    return _Packing(order, n, width)


def _widening(order: MonomialOrder, n: int, top: int, run) -> tuple:
    """``(run(packing), packing)`` from the narrowest packing that holds the
    exponent ``top``, rerun at twice the width while it raises ``_Carry``."""
    pk = _packing(order, n, top)
    while True:
        try:
            return run(pk), pk
        except _Carry:
            pk = _Packing(order, n, 2 * pk.width)


def _top_exponent(dicts) -> int:
    return max((max(m, default=0) for d in dicts for m in d), default=0)


# ---------------------------------------------------------------------------
# the monic reducer

class _MonicReducer:
    """Monic reduction on dicts ``{packed monomial: kernel value}`` over Q
    (``p == 0``) or F_p.

    Every basis entry (see ``_Packing.entry``) is monic, so one step serves
    both fields and only F_p adds ``% p``.  Each step multiplies an entry's
    tail by one monomial; the product with the lcm of the tail is checked
    for a set guard bit first, so no product carries into the next field.
    """

    def __init__(self, packing: _Packing, p: int):
        self.guard = packing.guard
        self.p = p

    def normalize(self, d: dict) -> dict:
        """The monic multiple of d; over Q on ints when lc is an int that
        divides every coefficient."""
        if not d:
            return d
        lc = d[max(d)]
        p = self.p
        if not p:
            if type(lc) is int and all(type(c) is int and not c % lc for c in d.values()):
                return {m: c // lc for m, c in d.items()}
            if lc != 1:
                inv = 1 / Fraction(lc)
                d = {m: c * inv for m, c in d.items()}
            return _canonical(d)
        if lc == 1:
            return d
        inv = pow(lc, p - 2, p)
        return {m: c * inv % p for m, c in d.items()}

    def subtract(self, work: dict, c, shift: int, bound: int, tail: dict) -> None:
        """work -= c * x^m * tail for ``shift = R(x^m) - one``, dropping the
        cancelled terms."""
        if (shift + bound) & self.guard:
            raise _Carry
        p = self.p
        for gm, gc in tail.items():
            t = shift + gm
            nv = work.get(t, 0) - c * gc
            if p:
                nv %= p
            if nv:
                work[t] = nv
            elif t in work:
                del work[t]

    def spoly(self, f: tuple, g: tuple, lcm: int) -> dict:
        """x^(lcm/lm f) * f - x^(lcm/lm g) * g for entries f and g, whose
        leading terms cancel."""
        _, f_lm, f_bound, f_tail = f
        _, g_lm, g_bound, g_tail = g
        s: dict = {}
        self.subtract(s, -1, lcm - f_lm, f_bound, f_tail)
        self.subtract(s, 1, lcm - g_lm, g_bound, g_tail)
        return s

    def reduce(self, work: dict, entries: Sequence[tuple]) -> dict:
        """Remainder of ``work`` by the monic ``entries``.

        Each term is reduced by the first entry whose leading monomial
        divides it; terms that no entry divides move to the remainder.
        """
        guard = self.guard
        offsets = [e[0] for e in entries]
        work = dict(work)
        out: dict = {}
        while work:
            m = max(work)
            c = work.pop(m)
            for k, lm_offset in enumerate(offsets):
                if (lm_offset - m) & guard == guard:
                    _, lm, bound, tail = entries[k]
                    self.subtract(work, c, m - lm, bound, tail)
                    break
            else:
                out[m] = c
        return out


# ---------------------------------------------------------------------------
# Buchberger

@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """A reduced, monic Groebner basis with its monomial order.

    The zero ideal has no generators.  The reduced monic basis of an ideal
    is unique for its order, so equal ideals give equal bases.  ``packed``
    is ``(packing, {leading monomial: monic dict})``, the basis as
    Buchberger finished it, in kernel values and by decreasing leading
    monomial.  ``generators`` unpacks it to ``Polynomial``s on first
    access; equality, hashing and ``repr`` read the generators, not the
    packing.
    """

    order: MonomialOrder
    ring: tuple[str, ...]
    field: object
    packed: tuple

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        pk, lead = self.packed
        fld = self.field
        return tuple(
            Polynomial(self.ring, fld, {pk.unpack(m): fld.from_int(c) for m, c in d.items()})
            for d in lead.values()
        )

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def _key(self) -> tuple:
        return self.generators, self.order, self.ring, self.field

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"<groebner [{gens}]>"


def groebner(
    gens: Sequence[dict], ring: Sequence[str], field, order: MonomialOrder | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by ``gens``, which are
    ``{monomial: kernel value}`` dicts over ``ring`` and ``field``.

    Deterministic for a fixed input and order.  The zero ideal has the
    empty basis.  Raises UnitIdealError when the ideal is the whole ring.
    """
    if not gens:
        raise ValueError("empty generator list")
    ring = tuple(ring)
    if any(len(m) != len(ring) for g in gens for m in g):
        raise ValueError("monomial length does not match ring")
    if order is None:
        order = DEGREVLEX
    p = field.characteristic
    final, pk = _widening(order, len(ring), _top_exponent(gens), lambda pk: _buchberger(gens, pk, p))
    return GroebnerBasis(order, ring, field, (pk, {max(d): d for d in final}))


def _buchberger(gens: Sequence[dict], pk: _Packing, p: int) -> list[dict]:
    """The reduced monic basis as packed dicts, by decreasing leading monomial."""
    arith = _MonicReducer(pk, p)
    guard = pk.guard

    def remainder(d: dict, basis) -> dict:
        return arith.normalize(arith.reduce(d, basis))

    seeds = [arith.normalize(d) for d in _packed_terms(gens, pk) if d]
    seeds.sort(key=lambda d: (max(d), sorted(d.items())))

    entries: list[tuple] = []  # (lm + offset, lm, bound, tail), see _Packing.entry
    offsets: list[int] = []  # lm + offset of each entry, for divisor tests
    exponents: list[Monomial] = []  # the leading monomials unpacked, for lcms

    def push(d: dict) -> None:
        e = pk.entry(d)
        if e[1] == pk.one:
            raise UnitIdealError("the generators span the unit ideal")
        entries.append(e)
        offsets.append(e[0])
        exponents.append(pk.unpack(e[1]))

    for d in seeds:
        r = remainder(d, entries)
        if r:
            push(r)

    # ``pairs`` answers the chain criterion; ``queue`` pops smallest lcm, then index
    pairs: dict[tuple[int, int], int] = {}
    queue: list[tuple] = []

    def add_pair(i: int, j: int) -> None:
        pairs[(i, j)] = lcm_ij = pk.pack(tuple(map(max, exponents[i], exponents[j])))
        heapq.heappush(queue, (lcm_ij, i, j))

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            add_pair(i, j)

    while queue:
        _, i, j = heapq.heappop(queue)
        lcm_ij = pairs.pop((i, j))
        if entries[i][1] + entries[j][1] - pk.one == lcm_ij:
            continue  # coprime leading monomials
        skip = False
        for k, lm_offset in enumerate(offsets):
            if (
                (lm_offset - lcm_ij) & guard == guard
                and k != i
                and k != j
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                skip = True
                break
        if skip:
            continue
        r = remainder(arith.spoly(entries[i], entries[j], lcm_ij), entries)
        if r:
            push(r)
            t = len(entries) - 1
            for k in range(t):
                add_pair(k, t)

    # minimalize: drop generators whose leading monomial is divisible by another's
    keep: list[int] = []
    for i, (_, lm_i, _, _) in enumerate(entries):
        redundant = False
        for j, lm_offset in enumerate(offsets):
            if (lm_offset - lm_i) & guard == guard and j != i:
                redundant = True
                break
        if not redundant:
            keep.append(i)

    # tail-reduce each survivor against the others
    final = []
    for i in keep:
        _, lm, _, tail = entries[i]
        r = remainder({lm: 1, **tail}, [entries[j] for j in keep if j != i])
        if r:
            final.append(r)
    final.sort(key=max, reverse=True)
    return final


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p supported on standard monomials (a linear projection)."""
    if p.ring != gb.ring or p.field != gb.field:
        raise ValueError("polynomial does not match the basis ring")
    fld, char = gb.field, gb.field.characteristic
    work, basis = _kernel_values(p.terms, char), [_kernel_values(g.terms, char) for g in gb.generators]

    def run(pk: _Packing) -> dict:
        entries = [pk.entry(d) for d in _packed_terms(basis, pk)]
        return _MonicReducer(pk, char).reduce(*_packed_terms([work], pk), entries)

    remainder, pk = _widening(gb.order, len(gb.ring), _top_exponent([work, *basis]), run)
    return Polynomial(gb.ring, fld, {pk.unpack(m): fld.from_int(c) for m, c in remainder.items()})


def _packed_terms(dicts: Sequence[dict], pk: _Packing) -> list[dict]:
    """Each ``{monomial: kernel value}`` dict as ``{packed monomial: kernel value}``."""
    return [{pk.pack(m): c for m, c in d.items()} for d in dicts]


# ---------------------------------------------------------------------------
# quotient presentations

@dataclass(frozen=True)
class QuotientPresentation:
    """The algebra K[x]/I presented by a Groebner basis and its standard monomials.

    The standard monomials ascend in the order, so 1 has index 0.
    ``matrices`` holds the multiplication matrices M_1..M_n on them, built
    once from the basis's packed form (see ``_matrices``); it takes no part
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
    n = len(gb.ring)
    pk, lead = gb.packed  # no standard or border exponent passes the basis's
    exponents = [pk.unpack(lm) for lm in lead]
    bounds = []
    for i in range(n):
        pure = [
            lm[i]
            for lm in exponents
            if lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)
        ]
        if not pure:
            raise InfiniteQuotientError(gb.ring[i])
        bounds.append(min(pure))
    guard, units = pk.guard, pk.units
    lm_offsets = [lm + pk.offset for lm in lead]
    std: list[int] = []

    def walk(i: int, r: int) -> None:
        if i == n:
            std.append(r)
            return
        # r has exponents set up to x_i and zero after it; once a leading
        # monomial divides r, it divides every larger e_i and every extension
        for _ in range(bounds[i]):
            for lm_offset in lm_offsets:
                if (lm_offset - r) & guard == guard:
                    return
            walk(i + 1, r)
            r += units[i]

    walk(0, pk.one)
    std.sort()
    matrices = _matrices(pk, std, lead, gb.field.characteristic)
    return QuotientPresentation(gb, tuple(map(pk.unpack, std)), len(std), matrices)


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

def _matrices(pk: _Packing, std: Sequence[int], lead: dict, p: int) -> tuple[tuple[dict, ...], ...]:
    """Sparse matrices M_1..M_n of multiplication by x_k on the packed
    standard monomials ``std``, in increasing order, for the packed basis
    ``lead`` keyed by leading monomial.

    ``matrices[k][j]`` is column j of M_k, the coordinates ``{i: c}`` of
    x_k * b_j as kernel values: over F_p a residue c in [1, p), over Q an
    ``int`` where c is integral.  The column is a unit vector when x_k * b_j
    is standard.  Otherwise x_k * b_j is a border monomial m; these are
    taken in increasing order.  If m leads a basis generator g, its column
    is that of m - g, the negated tail of g.  Otherwise some m / x_j is a
    smaller border monomial, with column {i: c_i}, and m has the column of
    sum c_i * x_j * b_i, where every x_j * b_i is smaller than m.
    """
    index = {b: i for i, b in enumerate(std)}
    guard = pk.guard
    products = [[b + u for b in std] for u in pk.units]
    # x_j divides m iff (one + units[j] + offset - m) keeps every guard bit
    variables = [(pk.one + u + pk.offset, u) for u in pk.units]
    columns: dict[int, dict] = {b: {i: 1} for b, i in index.items()}
    border = {m for row in products for m in row if m not in index}
    for m in sorted(border):
        if m in lead:
            # c != 0, so p - c is -c over Q and the residue of -c over F_p
            try:
                column = {index[t]: p - c for t, c in lead[m].items() if t != m}
            except KeyError:
                raise ArithmeticError("normal form left the standard-monomial span") from None
        else:
            for j, (x_offset, u) in enumerate(variables):
                if (x_offset - m) & guard == guard and m - u not in index:
                    break
            column = {}
            for i, c in columns[m - u].items():
                _add_multiple(column, c, columns[products[j][i]], p)
            if not p:
                column = _canonical(column)
        columns[m] = column
    return tuple(tuple(columns[m] for m in row) for row in products)


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


def poly_det(matrix: Sequence[Sequence[dict]], qp: QuotientPresentation) -> tuple:
    """The determinant of a square polynomial matrix in the quotient, as its
    coordinates over the standard monomials, in kernel values.

    The entries are ``{monomial: kernel value}`` dicts over the ring and
    field of ``qp``.  Expansion in minors over column subsets, from the last
    row up: the minor on rows k..n-1 and column set S is the sum over j in S
    of (-1)^t * a_kj * minor(k+1, S - {j}), where t counts the columns of S
    before j.  Each minor is a sparse coordinate vector and an entry acts
    on it term by term through the multiplication matrices, so no
    polynomial leaves the standard-monomial span and no normal form is
    needed.  Zero entries and zero minors are skipped: at most 2^n * n
    entry actions.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    p = qp.field.characteristic
    minors = {0: {0: 1}}  # the standard monomial 1 comes first
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
    return tuple(det.get(i, 0) for i in range(qp.dimension))
