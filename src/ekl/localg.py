"""Groebner bases and finite-dimensional quotient presentations.

Buchberger's algorithm with the coprimality and chain criteria, run over
integer coefficient dictionaries: over Q the reducer works fraction-free
(pseudo-reduction with periodic content stripping), over F_p it works
modulo p.  The published basis is reduced and monic.  A quotient
presentation enumerates the standard monomials (those outside the leading
monomial staircase) and supports normal-form reduction, which is all the
degree pipeline needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Sequence

from .poly import (
    DEGREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    format_monomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .scalar import PrimeField


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
# integer-dictionary arithmetic backends

_CONTENT_STRIP_PERIOD = 32


class _ZZArith:
    """Fraction-free reduction over Z for ideals defined over Q."""

    def __init__(self, order: MonomialOrder):
        self.order = order

    def from_poly(self, p: Polynomial) -> dict:
        denom = 1
        for c in p.terms.values():
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        d = {m: int(c * denom) for m, c in p.terms.items()}
        return self.normalize(d)

    def to_poly(self, d: dict, ring, fld) -> Polynomial:
        lm = max(d, key=self.order.key)
        lc = Fraction(d[lm])
        return Polynomial(ring, fld, {m: Fraction(c) / lc for m, c in d.items()})

    def normalize(self, d: dict) -> dict:
        if not d:
            return d
        g = 0
        for c in d.values():
            g = math.gcd(g, c)
        lm = max(d, key=self.order.key)
        if d[lm] < 0:
            g = -g
        if g != 1:
            d = {m: c // g for m, c in d.items()}
        return d

    def spoly(self, f: dict, g: dict, f_lm: Monomial, g_lm: Monomial) -> dict:
        lcm_m = mono_lcm(f_lm, g_lm)
        f_lc, g_lc = f[f_lm], g[g_lm]
        l = abs(f_lc * g_lc) // math.gcd(f_lc, g_lc)
        mf, mg = l // f_lc, l // g_lc
        sf, sg = mono_div(lcm_m, f_lm), mono_div(lcm_m, g_lm)
        s: dict = {}
        for m, c in f.items():
            s[mono_mul(sf, m)] = mf * c
        for m, c in g.items():
            t = mono_mul(sg, m)
            nv = s.get(t, 0) - mg * c
            if nv:
                s[t] = nv
            elif t in s:
                del s[t]
        return s

    def reduce_full(self, work: dict, entries: list[tuple[Monomial, int, dict]]) -> dict:
        key = self.order.key
        work = dict(work)
        out: dict = {}
        steps = 0
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            hit = None
            for lm, lc, terms in entries:
                if mono_divides(lm, m):
                    hit = (lm, lc, terms)
                    break
            if hit is None:
                out[m] = c
                continue
            lm, lc, terms = hit
            g = math.gcd(c, lc)
            mult_self, mult_red = abs(lc) // g, c * (1 if lc > 0 else -1) // g
            if mult_self != 1:
                for k in work:
                    work[k] *= mult_self
                for k in out:
                    out[k] *= mult_self
            shift = mono_div(m, lm)
            for gm, gc in terms.items():
                if gm == lm:
                    continue
                t = mono_mul(shift, gm)
                nv = work.get(t, 0) - mult_red * gc
                if nv:
                    work[t] = nv
                elif t in work:
                    del work[t]
            steps += 1
            if steps % _CONTENT_STRIP_PERIOD == 0 and (work or out):
                g_all = 0
                for c2 in work.values():
                    g_all = math.gcd(g_all, c2)
                for c2 in out.values():
                    g_all = math.gcd(g_all, c2)
                if g_all > 1:
                    work = {k: v // g_all for k, v in work.items()}
                    out = {k: v // g_all for k, v in out.items()}
        return self.normalize(out)


class _FpArith:
    """Monic modular reduction over F_p."""

    def __init__(self, order: MonomialOrder, p: int):
        self.order = order
        self.p = p

    def from_poly(self, p: Polynomial) -> dict:
        d = {m: c.residue % self.p for m, c in p.terms.items()}
        return self.normalize({m: c for m, c in d.items() if c})

    def to_poly(self, d: dict, ring, fld) -> Polynomial:
        return Polynomial(ring, fld, {m: fld.from_int(c) for m, c in d.items()})

    def normalize(self, d: dict) -> dict:
        if not d:
            return d
        lm = max(d, key=self.order.key)
        lc = d[lm]
        if lc == 1:
            return d
        inv = pow(lc, self.p - 2, self.p)
        return {m: c * inv % self.p for m, c in d.items()}

    def spoly(self, f: dict, g: dict, f_lm: Monomial, g_lm: Monomial) -> dict:
        lcm_m = mono_lcm(f_lm, g_lm)
        sf, sg = mono_div(lcm_m, f_lm), mono_div(lcm_m, g_lm)
        s: dict = {}
        for m, c in f.items():
            s[mono_mul(sf, m)] = c
        for m, c in g.items():
            t = mono_mul(sg, m)
            nv = (s.get(t, 0) - c) % self.p
            if nv:
                s[t] = nv
            elif t in s:
                del s[t]
        return s

    def reduce_full(self, work: dict, entries: list[tuple[Monomial, int, dict]]) -> dict:
        key = self.order.key
        work = dict(work)
        out: dict = {}
        while work:
            m = max(work, key=key)
            c = work.pop(m)
            hit = None
            for lm, lc, terms in entries:
                if mono_divides(lm, m):
                    hit = (lm, terms)
                    break
            if hit is None:
                out[m] = c
                continue
            lm, terms = hit  # entries are monic
            shift = mono_div(m, lm)
            for gm, gc in terms.items():
                if gm == lm:
                    continue
                t = mono_mul(shift, gm)
                nv = (work.get(t, 0) - c * gc) % self.p
                if nv:
                    work[t] = nv
                elif t in work:
                    del work[t]
        return self.normalize(out)


def _arith_for(field, order: MonomialOrder):
    if isinstance(field, PrimeField):
        return _FpArith(order, field.p)
    return _ZZArith(order)


# ---------------------------------------------------------------------------
# Buchberger

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis with its monomial order."""

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

    Deterministic for a fixed input and order.  Raises UnitIdealError when
    the ideal is the whole ring.
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
    arith = _arith_for(fld, order)
    key = order.key

    seeds = []
    for g in gens:
        d = arith.from_poly(g)
        if d:
            seeds.append(d)
    if not seeds:
        raise ValueError("all generators are zero")
    seeds.sort(key=lambda d: (key(max(d, key=key)), sorted(d.items())))

    entries: list[tuple[Monomial, int, dict]] = []

    def push(d: dict) -> None:
        lm = max(d, key=key)
        if sum(lm) == 0:
            raise UnitIdealError("the generators span the unit ideal")
        entries.append((lm, d[lm], d))

    for d in seeds:
        r = arith.reduce_full(d, entries)
        if r:
            push(r)

    pairs: dict[tuple[int, int], Monomial] = {}
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            pairs[(i, j)] = mono_lcm(entries[i][0], entries[j][0])

    while pairs:
        (i, j) = min(pairs, key=lambda ij: (key(pairs[ij]), ij))
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
        s = arith.spoly(entries[i][2], entries[j][2], lmi, lmj)
        r = arith.reduce_full(s, entries)
        if r:
            push(r)
            t = len(entries) - 1
            for k in range(t):
                pairs[(k, t)] = mono_lcm(entries[k][0], entries[t][0])

    # minimalize: drop generators whose leading monomial is divisible by another's
    keep: list[int] = []
    for i, (lm_i, _, _) in enumerate(entries):
        redundant = False
        for j, (lm_j, _, _) in enumerate(entries):
            if i == j:
                continue
            if mono_divides(lm_j, lm_i) and (lm_j != lm_i or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)

    # tail-reduce each survivor against the others
    reduced: list[dict] = []
    for i in keep:
        others = [entries[j] for j in keep if j != i]
        r = arith.reduce_full(entries[i][2], others)
        reduced.append(r)

    polys = [arith.to_poly(d, ring, fld) for d in reduced if d]
    polys.sort(key=lambda p: key(p.leading_monomial(order)), reverse=True)
    return GroebnerBasis(tuple(polys), order, ring, fld)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p supported on standard monomials (a linear projection)."""
    if p.ring != gb.ring or p.field != gb.field:
        raise ValueError("polynomial does not match the basis ring")
    order = gb.order
    key = order.key
    entries = [(g.leading_monomial(order), g.terms) for g in gb.generators]
    zero = p.field.zero
    work = dict(p.terms)
    out: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, terms in entries:
            if mono_divides(lm, m):
                hit = (lm, terms)
                break
        if hit is None:
            out[m] = c
            continue
        lm, terms = hit  # generators are monic
        shift = mono_div(m, lm)
        for gm, gc in terms.items():
            if gm == lm:
                continue
            t = mono_mul(shift, gm)
            nv = work.get(t, zero) - c * gc
            if nv:
                work[t] = nv
            elif t in work:
                del work[t]
    return Polynomial(gb.ring, gb.field, out)


# ---------------------------------------------------------------------------
# quotient presentations

@dataclass(frozen=True)
class QuotientPresentation:
    """The algebra K[x]/I presented by a Groebner basis and its standard monomials.

    ``matrices`` holds the multiplication matrices once they are attached
    (see ``multiplication_matrices``); it takes no part in equality.
    """

    basis: GroebnerBasis
    standard_monomials: tuple[Monomial, ...]
    dimension: int
    matrices: tuple | None = dataclass_field(default=None, compare=False, repr=False)

    @property
    def ring(self) -> tuple[str, ...]:
        return self.basis.ring

    @property
    def field(self):
        return self.basis.field

    def monomial_index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.standard_monomials)}

    def staircase_report(self) -> str:
        lead = ", ".join(
            format_monomial(m, self.ring) for m in self.basis.leading_monomials()
        )
        std = ", ".join(format_monomial(m, self.ring) for m in self.standard_monomials)
        return (
            f"leading monomials: {lead}\n"
            f"standard monomials ({self.dimension}): {std}"
        )


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
    """Enumerate standard monomials; raises InfiniteQuotientError when unbounded."""
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
    return QuotientPresentation(gb, tuple(std), len(std))


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
    x_k * b_j.  The column is a unit vector when x_k * b_j is standard;
    otherwise x_k * b_j is a border monomial and the column is its normal
    form, computed once per distinct border monomial.
    """
    index = qp.monomial_index()
    fld = qp.field
    border: dict[Monomial, dict[int, object]] = {}
    matrices = []
    for k in range(len(qp.ring)):
        columns = []
        for b in qp.standard_monomials:
            m = b[:k] + (b[k] + 1,) + b[k + 1 :]
            if m in index:
                columns.append({index[m]: fld.one})
                continue
            if m not in border:
                element = coordinates(Polynomial(qp.ring, fld, {m: fld.one}), qp)
                border[m] = {i: c for i, c in enumerate(element.coordinates) if c}
            columns.append(border[m])
        matrices.append(tuple(columns))
    return tuple(matrices)


def matrix_times_vector(columns: Sequence[dict], vector: dict, zero) -> dict:
    """M * v for a column-sparse matrix and a sparse vector ``{i: c}``."""
    out: dict = {}
    for j, a in vector.items():
        for i, c in columns[j].items():
            s = out.get(i, zero) + a * c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
    return out


def origin_supported(qp: QuotientPresentation) -> bool:
    """True iff every variable is nilpotent in the quotient.

    In a finite-dimensional commutative algebra a nilpotent element has
    index at most the dimension d, so x_i is nilpotent iff x_i^d * 1 = 0.
    That vector takes at most d products with the sparse matrix M_i, and
    the loop stops as soon as it is zero.
    """
    matrices = qp.matrices or multiplication_matrices(qp)
    fld = qp.field
    start = qp.monomial_index()[(0,) * len(qp.ring)]
    for columns in matrices:
        vector = {start: fld.one}
        for _ in range(qp.dimension):
            vector = matrix_times_vector(columns, vector, fld.zero)
            if not vector:
                break
        if vector:
            return False
    return True
