"""The local degree pipeline for polynomial maps A^n -> A^n at the origin.

Given a square map f = (f_1, ..., f_n) vanishing at the origin whose whole
fiber over 0 is concentrated at the origin, the pipeline presents the
quotient algebra Q = K[x]/(f), forms the distinguished socle element
E = det(a_ij) from a splitting f_i = sum_j a_ij * x_j, builds the bilinear
form beta(a, b) = phi(a*b) for a functional phi with phi(E) = 1, and
classifies the resulting Gram matrix in GW(K).  The Jacobian element
J = det(d f_i / d x_j) satisfies J = dim(Q) * E away from characteristics
dividing the dimension, and the pipeline asserts this on every run.

Everything after the Groebner basis runs through the sparse
multiplication matrices M_k of Q (multiplication by x_k on the standard
monomials), built once per map with its presentation.  Both determinants
are taken inside Q (``localg.poly_det``): minors are coordinate vectors
and polynomial entries act on them through the M_k.  The Gram row for a
standard monomial b is the functional r_b = phi(b * -): r_1 = phi, and
r_{x_k m} = r_m M_k, so every row is one vector-matrix product away from
the row of a divisor of b.  The same matrices give the origin test (every
x_k is nilpotent).  Callers that need only the class and dim Q may first
``strip_solved`` components c*x_k + h: the change y_k = c*x_k + h, of
Jacobian c, leaves the map on y_k = 0 up to the unit <(-1)^(i+k) c>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .gw import GramForm, GWClass, classify
from .localg import (
    AlgebraElement,
    GroebnerBasis,
    QuotientPresentation,
    groebner,
    normal_form,  # noqa: F401  perfbench/tracer.py counts calls through this name
    origin_supported,
    poly_det,
    quotient_presentation,
)
from .poly import (
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    mono_mul,
    parse_poly,
    partial_derivative,
    substitute,
)
from .scalar import QQ


class NotSupportedAtOriginError(ValueError):
    """The fiber over the origin is not concentrated at the origin."""


class ZeroSocleError(ArithmeticError):
    """det(a_ij) vanished in the quotient; the zero is not isolated."""


@dataclass(frozen=True)
class MapSpec:
    """An ordered list of polynomial components, one per ring variable.

    Every component must vanish at the origin.
    """

    ring: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if not self.ring:
            raise ValueError("a map spec needs at least one variable")
        for i, name in enumerate(self.ring):
            if name in self.ring[:i]:
                raise ValueError(f"variable {name!r} is repeated")
        if len(self.components) != len(self.ring):
            raise ValueError("a map spec needs one component per variable")
        for f in self.components:
            if f.ring != self.ring:
                raise ValueError("component ring mismatch")
            if f.constant_term():
                raise ValueError("components must vanish at the origin")

    @property
    def field(self):
        return self.components[0].field

    @classmethod
    def build(cls, ring: Sequence[str], components: Sequence[Polynomial]) -> "MapSpec":
        return cls(tuple(ring), tuple(components))

    @classmethod
    def from_strings(cls, ring: Sequence[str], texts: Sequence[str], field=QQ) -> "MapSpec":
        ring = tuple(ring)
        return cls(ring, tuple(parse_poly(t, ring, field) for t in texts))

    @classmethod
    def from_json(cls, text: str, field=QQ) -> "MapSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError('a map file is a JSON object with "variables" and "components"')
        for key in ("variables", "components"):
            if key not in data:
                raise ValueError(f'map file has no "{key}" key')
        return cls.from_strings(data["variables"], data["components"], field)

    def to_json(self, comment: str | None = None) -> str:
        data: dict = {}
        if comment is not None:
            data["comment"] = comment
        data["variables"] = list(self.ring)
        data["components"] = [str(f) for f in self.components]
        return json.dumps(data, indent=2)


@dataclass(frozen=True)
class EKLResult:
    """Everything the pipeline produced for one map."""

    quotient: QuotientPresentation
    gram: tuple[tuple, ...]
    gw_class: GWClass
    socle: AlgebraElement
    jacobian: AlgebraElement
    functional_monomial: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.quotient.dimension


def linear_decompose(f: MapSpec) -> list[list[Polynomial]]:
    """Split f_i = sum_j a_ij * x_j by assigning each monomial to its
    smallest-index variable.

    det(a_ij) mod the ideal does not depend on the splitting; this rule
    just makes runs reproducible.
    """
    n = len(f.ring)
    fld = f.field
    rows: list[list[Polynomial]] = []
    for comp in f.components:
        if comp.constant_term():
            raise ValueError("component has a nonzero constant term")
        cols: list[dict] = [dict() for _ in range(n)]
        for mono, coeff in comp.terms.items():
            j = next(k for k, e in enumerate(mono) if e > 0)
            reduced = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
            cols[j][reduced] = cols[j].get(reduced, fld.zero) + coeff
        rows.append([Polynomial(f.ring, fld, d) for d in cols])
    return rows


def socle_element(f: MapSpec, qp: QuotientPresentation) -> AlgebraElement:
    """det(a_ij) in the quotient; nonzero whenever the zero is isolated."""
    element = poly_det(linear_decompose(f), qp)
    if element.is_zero():
        raise ZeroSocleError("the distinguished socle element vanished")
    return element


def jacobian_element(f: MapSpec, qp: QuotientPresentation) -> AlgebraElement:
    """The Jacobian determinant det(d f_i / d x_j) in the quotient."""
    n = len(f.ring)
    jac = [
        [partial_derivative(f.components[i], f.ring[j]) for j in range(n)]
        for i in range(n)
    ]
    return poly_det(jac, qp)


def compose_maps(f: MapSpec, g: MapSpec) -> MapSpec:
    """The composite map f o g, expanded in g's coordinates."""
    if len(f.ring) != len(g.ring):
        raise ValueError("maps have different numbers of variables")
    assignment = {name: g.components[i] for i, name in enumerate(f.ring)}
    comps = tuple(substitute(c, assignment, ring=g.ring) for c in f.components)
    return MapSpec(g.ring, comps)


def strip_solved(f: MapSpec) -> tuple[MapSpec, object]:
    """A map g on fewer variables and a unit u with deg f = <u> * deg g.

    While f_i = c*x_k + h for a constant c != 0, x_k not in h, and more than
    one variable is left: substitute x_k = -h/c into the other components,
    drop f_i and x_k, and multiply u by (-1)^(i+k) * c.  The pair whose f_i
    has the fewest terms goes first (ties by i, then k), as substitution
    densifies.  f comes back as is, with u = 1, if a component would vanish.
    """
    g, u, zero = f, f.field.one, f.field.zero
    while len(g.ring) > 1:
        n = len(g.ring)
        pairs = [
            (len(p.terms), i, k, p.terms[e])
            for i, p in enumerate(g.components)
            for k, e in enumerate(tuple(int(j == k) for j in range(n)) for k in range(n))
            if e in p.terms and sum(1 for m in p.terms if m[k]) == 1
        ]
        if not pairs:
            break
        _, i, k, c = min(pairs)
        ring = g.ring[:k] + g.ring[k + 1 :]
        root = {m[:k] + m[k + 1 :]: -a / c for m, a in g.components[i].terms.items() if not m[k]}
        powers = [None, Polynomial(ring, f.field, root)]  # powers[e] = (-h/c)^e
        comps = []
        for p in g.components[:i] + g.components[i + 1 :]:
            terms: dict = {}
            for m, a in p.terms.items():
                rest = m[:k] + m[k + 1 :]
                if not m[k]:  # free of x_k: copied
                    terms[rest] = terms.get(rest, zero) + a
                    continue
                while len(powers) <= m[k]:
                    powers.append(powers[-1] * powers[1])
                for pm, pa in powers[m[k]].terms.items():
                    key = mono_mul(rest, pm)
                    terms[key] = terms.get(key, zero) + a * pa
            comps.append(Polynomial(ring, f.field, terms))
        if any(p.is_zero() for p in comps):
            return f, f.field.one
        u *= c if (i + k) % 2 == 0 else -c
        g = MapSpec(ring, tuple(comps))
    return g, u


def prepare_quotient(
    f: MapSpec, order: MonomialOrder | None = None
) -> tuple[GroebnerBasis, QuotientPresentation]:
    """Groebner basis and presentation of K[x]/(f_1, ..., f_n), with the
    supported-at-origin check that justifies using the global quotient for
    the local algebra."""
    gb = groebner(f.components, order or DEGREVLEX)
    qp = quotient_presentation(gb)
    if not origin_supported(qp):
        raise NotSupportedAtOriginError(
            "the fiber over the origin is not concentrated at the origin"
        )
    return gb, qp


def ekl_degree(
    f: MapSpec,
    order: MonomialOrder | None = None,
    functional_monomial: tuple[int, ...] | None = None,
) -> EKLResult:
    """The class of the bilinear form beta_phi in GW(K).

    phi is dual to one standard-monomial coordinate carrying a nonzero
    coefficient of the socle element (by default the order-maximal such
    monomial), scaled so that phi(E) = 1.  The class does not depend on
    this choice.
    """
    _, qp = prepare_quotient(f, order)
    socle = socle_element(f, qp)
    jac = jacobian_element(f, qp)
    _assert_jacobian_relation(f, qp, socle, jac)

    ord_ = qp.basis.order
    if functional_monomial is None:
        candidates = [
            m for m, c in zip(qp.standard_monomials, socle.coordinates) if c
        ]
        functional_monomial = ord_.max(candidates)
    index = qp.standard_monomials.index(functional_monomial)
    pivot = socle.coordinates[index]
    if not pivot:
        raise ValueError("the functional monomial does not appear in the socle element")

    gram = _gram_rows(qp, index, pivot)
    gw_class = classify(GramForm.from_field_entries(gram, qp.field), qp.field)
    if gw_class.rank != qp.dimension:
        raise ArithmeticError("the bilinear form is degenerate")
    return EKLResult(qp, gram, gw_class, socle, jac, functional_monomial)


def _assert_jacobian_relation(f, qp, socle, jac) -> None:
    fld = qp.field
    char = fld.characteristic
    if char and qp.dimension % char == 0:
        return  # the relation J = dim * E carries no information here
    expected = socle.scaled(fld.from_int(qp.dimension))
    if tuple(expected.coordinates) != tuple(jac.coordinates):
        raise ArithmeticError(
            "Jacobian element differs from dimension * socle element"
        )


def _gram_rows(qp: QuotientPresentation, index: int, pivot):
    """Rows r_b(b') = phi(b * b') for phi = (coordinate ``index``) / pivot.

    r_1 = phi and r_b = r_m M_k, where x_k is the first variable dividing
    b and m = b / x_k.  Standard monomials are closed under division and a
    divisor precedes its multiple in every monomial order, so r_m is
    already built when b comes up in the ascending basis.
    """
    fld = qp.field
    zero = fld.zero
    position = qp.monomial_index()
    phi = [zero] * qp.dimension
    phi[index] = fld.one / pivot
    rows: list[tuple] = []
    for b in qp.standard_monomials:
        k = next((k for k, e in enumerate(b) if e), None)
        if k is None:
            rows.append(tuple(phi))
            continue
        r = rows[position[b[:k] + (b[k] - 1,) + b[k + 1 :]]]
        rows.append(
            tuple(
                sum((r[i] * c for i, c in column.items() if r[i]), zero)
                for column in qp.matrices[k]
            )
        )
    return tuple(rows)
