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
the row of a divisor of b.  A row is a dict of its nonzero entries, and
the product scatters each of them through the transpose of M_k, built
once per split.  The same matrices give the origin test (every
x_k is nilpotent).  These kernels compute on int residues over F_p and on
ints where the values are integral over Q (see ``localg``), and so does
everything that feeds or reads them: a ``MapSpec`` holds one ``{monomial:
kernel value}`` dict per component, from the parser or the quotient-map
builders through ``strip_solved``, the split and Jacobian rows, the
coordinates of E and J with their check J = dim * E, and the Gram block
handed to ``classify`` (a ``GramForm`` of kernel values, with the 1/pivot
of phi as its scale).  Field values are made only where a map is printed
(``MapSpec.component_texts``), for ``EKLResult`` in ``ekl_degree`` and by
``classify`` for the diagonal.  No ``/`` touches a kernel value but the
exact -a/c of ``strip_solved``, 1/pivot over Q and the pivots
D_{k+1}/(D_k L) of ``gw.diagonalize`` over Q.

Every output that shows only the class and dim Q comes from one
``degree_class`` run per map; ``ekl_degree`` serves the outputs that show
Q's coordinates, E, J and the full map's own diagonal.  ``degree_class``
first strips solved components c*x_k + h (``strip_solved``): the change
y_k = c*x_k + h, of Jacobian c, leaves the map on y_k = 0 up to the unit
<(-1)^(i+k) c>.  If positive integer weights w make every remaining
component weighted homogeneous (``homogeneous_weights``), Q is graded, E
and phi live in one degree D, and phi(b*b') != 0 only when
deg b + deg b' = D.  Groebner then runs once, in the w-weighted
degrevlex order, the grading's own, whose basis is far smaller on the
quotient maps (474 elements under DEGREVLEX, 51 weighted, for A(3,3,3)),
and a failure raises from that run; the outputs of ``ekl_degree`` depend
on the basis and keep DEGREVLEX.  The class is (sum_{k<D/2} dim Q_k) H
plus the class of the middle block Q_{D/2} (Witt decomposition).  Only
the rows r_b with deg b <= D/2 are built, and their nonzeros lie on
their partner columns, those of degree D - deg b.  The theorem checks stay: J = dim(Q) * E; Q has the Hilbert
series of a regular sequence, prod (1 - t^d_i) / prod (1 - t^w_j) for
the weighted degrees d_i of the components, read slice by slice off the
standard monomials; every pairing Q_k x Q_{D-k} with k < D/2 is perfect,
certified by the rank of its sparse rows modulo a large prime (by sparse
elimination, ints taken as residues as they are) and by an exact rank
only when that one comes out short; and the middle block is
nondegenerate.  The middle block is classified once, and the h hyperbolic
planes and <u> are folded into its diagonal in one pass
(``gw.fold_class``).  A map without weights is split under the zero
weight: one degree, no pairings, and the whole Gram matrix is the middle
block, as in ``ekl_degree``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .gw import DegenerateFormError, GramForm, GWClass, classify, fold_class
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
    Field,
    MonomialOrder,
    _add_product,
    _canonical,
    _product,
    format_poly,
    from_kernel,
    is_identifier,
    parse_poly,
)
from .scalar import QQ


class NotSupportedAtOriginError(ValueError):
    """The fiber over the origin is not concentrated at the origin."""


class ZeroSocleError(ArithmeticError):
    """det(a_ij) vanished in the quotient; the zero is not isolated."""


@dataclass(frozen=True)
class MapSpec:
    """An ordered list of polynomial components over one field, one per ring
    variable.

    Each component is a ``{monomial: kernel value}`` dict, treated as
    immutable: int residues in [1, p) over F_p, and over Q nonzero ints where
    integral and Fractions otherwise.  Every component must vanish at the
    origin.
    """

    ring: tuple[str, ...]
    field: Field
    components: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not self.ring:
            raise ValueError("a map spec needs at least one variable")
        for i, name in enumerate(self.ring):
            if not is_identifier(name):
                raise ValueError(f"variable name {name!r} is not one identifier")
            if name in self.ring[:i]:
                raise ValueError(f"variable {name!r} is repeated")
        if len(self.components) != len(self.ring):
            raise ValueError("a map spec needs one component per variable")
        n, p = len(self.ring), self.field.characteristic
        for f in self.components:
            if any(len(m) != n for m in f):
                raise ValueError("component ring mismatch")
            if (0,) * n in f:
                raise ValueError("components must vanish at the origin")
            if not all(
                type(c) is int and 0 < c < p if p else type(c) in (int, Fraction) and c
                for c in f.values()
            ):
                raise ValueError(f"component coefficients are not kernel values of {self.field!r}")

    @classmethod
    def from_strings(cls, ring: Sequence[str], texts: Sequence[str], field=QQ) -> "MapSpec":
        ring = tuple(ring)
        return cls(ring, field, tuple(parse_poly(t, ring, field) for t in texts))

    @classmethod
    def from_json(cls, text: str, field=QQ) -> "MapSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError('a map file is a JSON object with "variables" and "components"')
        for key in ("variables", "components"):
            if key not in data:
                raise ValueError(f'map file has no "{key}" key')
            if not (isinstance(data[key], list) and all(isinstance(v, str) for v in data[key])):
                raise ValueError(f'"{key}" must be a list of strings')
        return cls.from_strings(data["variables"], data["components"], field)

    def to_json(self, comment: str | None = None) -> str:
        data: dict = {}
        if comment is not None:
            data["comment"] = comment
        data["variables"] = list(self.ring)
        data["components"] = self.component_texts()
        return json.dumps(data, indent=2)

    def component_texts(self) -> list[str]:
        """The components as printed (``poly.format_poly``), in field values."""
        return [format_poly(from_kernel(self.ring, self.field, f)) for f in self.components]


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


def linear_decompose(f: MapSpec) -> list[list[dict]]:
    """Split f_i = sum_j a_ij * x_j by assigning each monomial to its
    smallest-index variable; each a_ij is a ``{monomial: kernel value}`` dict.

    det(a_ij) mod the ideal does not depend on the splitting; this rule
    just makes runs reproducible.
    """
    n = len(f.ring)
    rows: list[list[dict]] = []
    for comp in f.components:
        if (0,) * n in comp:
            raise ValueError("component has a nonzero constant term")
        cols: list[dict] = [{} for _ in range(n)]
        for m, c in comp.items():
            j = next(k for k, e in enumerate(m) if e)
            cols[j][m[:j] + (m[j] - 1,) + m[j + 1 :]] = c
        rows.append(cols)
    return rows


def socle_element(f: MapSpec, qp: QuotientPresentation) -> tuple:
    """The coordinates of det(a_ij) in the quotient, as kernel values;
    nonzero whenever the zero is isolated."""
    element = poly_det(linear_decompose(f), qp)
    if not any(element):
        raise ZeroSocleError("the distinguished socle element vanished")
    return element


def jacobian_element(f: MapSpec, qp: QuotientPresentation) -> tuple:
    """The coordinates of the Jacobian determinant det(d f_i / d x_j) in the
    quotient, as kernel values."""
    n, p = len(f.ring), f.field.characteristic
    rows: list[list[dict]] = []
    for comp in f.components:
        row: list[dict] = [{} for _ in range(n)]
        for m, c in comp.items():
            for j, e in enumerate(m):
                if e and (d := c * e % p if p else c * e):
                    row[j][m[:j] + (e - 1,) + m[j + 1 :]] = d
        rows.append(row)
    return poly_det(rows, qp)


def strip_solved(f: MapSpec) -> tuple[MapSpec, object]:
    """A map g on fewer variables and a unit u with deg f = <u> * deg g.

    While f_i = c*x_k + h for a constant c != 0, x_k not in h, and more than
    one variable is left: substitute x_k = -h/c into the other components,
    drop f_i and x_k, and multiply u by (-1)^(i+k) * c.  The pair whose f_i
    has the fewest terms goes first (ties by i, then k), as substitution
    densifies.  f comes back as is, with u = 1, if a component would vanish.
    The substitution runs on kernel values: -a/c is an int over Q when c
    divides a and a Fraction otherwise, and a * (p - 1/c) over F_p.
    """
    fld = f.field
    p = fld.characteristic
    ring, comps, u = f.ring, list(f.components), 1
    while len(ring) > 1:
        pairs = [  # c*x_k is a term of f_i, and no other term holds x_k
            (len(terms), i, m.index(1), c)
            for i, terms in enumerate(comps)
            for m, c in terms.items()
            if sum(m) == 1 and sum(1 for t in terms if t[m.index(1)]) == 1
        ]
        if not pairs:
            break
        _, i, k, c = min(pairs)
        ring = ring[:k] + ring[k + 1 :]
        h = {m[:k] + m[k + 1 :]: a for m, a in comps[i].items() if not m[k]}
        if p:
            scale = p - pow(c, -1, p)
            root = {m: a * scale % p for m, a in h.items()}
        else:
            root = _canonical({m: Fraction(-a, c) for m, a in h.items()})
        powers = [{(0,) * len(ring): 1}, root]  # powers[e] = (-h/c)^e
        rest = []
        for terms in comps[:i] + comps[i + 1 :]:
            out: dict = {}
            for m, a in terms.items():
                while len(powers) <= m[k]:
                    powers.append(_product(powers[-1], root, p))
                _add_product(out, a, m[:k] + m[k + 1 :], powers[m[k]], p)
            rest.append(out)
        if not all(rest):
            return f, fld.one
        u, comps = u * (c if (i + k) % 2 == 0 else p - c), rest  # from_int reduces u over F_p
    if ring == f.ring:
        return f, fld.one
    return MapSpec(ring, fld, tuple(comps if p else map(_canonical, comps))), fld.from_int(u)


def prepare_quotient(
    f: MapSpec, order: MonomialOrder | None = None
) -> tuple[GroebnerBasis, QuotientPresentation]:
    """Groebner basis and presentation of K[x]/(f_1, ..., f_n), with the
    supported-at-origin check that justifies using the global quotient for
    the local algebra."""
    gb = groebner(f.components, f.ring, f.field, order or DEGREVLEX)
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
    qp, socle, jac = _checked_socle(f, order)
    std = qp.standard_monomials
    index = _top_socle_index(socle) if functional_monomial is None else std.index(functional_monomial)
    functional_monomial = std[index]
    if not socle[index]:
        raise ValueError("the functional monomial does not appear in the socle element")
    form = _split_form(qp, socle, index, [0] * qp.dimension)[1]
    gw_class = classify(form)
    socle, jac = (AlgebraElement(tuple(map(qp.field.from_int, e)), qp) for e in (socle, jac))
    return EKLResult(qp, form.field_entries(), gw_class, socle, jac, functional_monomial)


def degree_class(f: MapSpec) -> tuple[int, GWClass]:
    """dim Q and the class of f, as deg f = <u> * deg g for (g, u) =
    ``strip_solved(f)``: g's class by ``_graded_class``, with h H and <u>
    folded into the diagonal of its middle block in one pass
    (``gw.fold_class``).  A failure is g's, raised from its one Groebner
    basis, so its message names g's variables."""
    g, u = strip_solved(f)
    dimension, hyperbolic, middle = _graded_class(g)
    return dimension, fold_class(middle, hyperbolic, u)


def _graded_class(f: MapSpec) -> tuple[int, int, GWClass]:
    """dim Q, the number h of hyperbolic planes and the class of the middle
    block of f's form, split by degree (``_split_form``) under
    ``homogeneous_weights(f)``, or under the zero weight (one degree) when
    it has none.

    The Groebner basis is built once, in the w-weighted degrevlex order of
    the weights w, or in DEGREVLEX without them.  With weights the Hilbert
    series of Q is asserted beside J = dim * E.
    """
    weights = homogeneous_weights(f)
    qp, socle, _ = _checked_socle(f, MonomialOrder("degrevlex", weights) if weights else DEGREVLEX)
    std = qp.standard_monomials
    degree = [sum(map(mul, weights, b)) for b in std] if weights else [0] * len(std)
    index = _top_socle_index(socle)
    if weights:
        _assert_hilbert_series(f, weights, degree, degree[index])
    hyperbolic, block = _split_form(qp, socle, index, degree)
    return qp.dimension, hyperbolic, classify(block)


def _assert_hilbert_series(f: MapSpec, weights, degree: list[int], top: int) -> None:
    """Q's Hilbert series is prod_i (1 - t^d_i) / prod_j (1 - t^w_j), for d_i
    the weighted degree of f_i, as f is a regular sequence (Stanley,
    "Hilbert functions of graded algebras").

    Asserted on the weighted degrees ``degree`` of the standard monomials:
    the socle degree ``top`` is D = sum d_i - sum w_j, dim Q_k is the t^k
    coefficient, and the series has no terms past D, so that dim Q =
    prod d_i / prod w_j.  None of this reads the Groebner basis's order.
    The series is taken up to t^(sum d_i), where a polynomial quotient of
    degree D must have ended.
    """
    degrees = [sum(map(mul, weights, next(iter(c)))) for c in f.components]
    length = sum(degrees) + 1
    series = [1] + [0] * (length - 1)
    for d in degrees:  # times 1 - t^d
        for k in range(length - 1, d - 1, -1):
            series[k] -= series[k - d]
    for w in weights:  # over 1 - t^w, as a power series
        for k in range(w, length):
            series[k] += series[k - w]
    counts = [0] * (max(degree) + 1)
    for d in degree:
        counts[d] += 1
    if top != length - 1 - sum(weights) or any(series[top + 1 :]) or counts != series[: top + 1]:
        raise ArithmeticError("the Hilbert series of Q differs from that of its weighted degrees")


def homogeneous_weights(f: MapSpec) -> tuple[int, ...] | None:
    """Positive integer weights w, one per variable, for which every
    component of f is w-homogeneous; None when none are found.

    w must annihilate the difference of any two exponent vectors of one
    component.  Exact elimination on these differences keeps a reduced
    echelon basis and gives up as soon as its rank reaches the number of
    variables.  The free coordinates of the nullspace are set to 1, which
    can miss a positive w when the nullspace has dimension 2 or more; such
    a map is split under the zero weight, with no pairings to skip.
    """
    n = len(f.ring)
    rows: dict[int, list[int]] = {}  # pivot column -> row, 0 in the other pivots
    for comp in f.components:
        terms = list(comp)
        for m in terms[1:]:
            v = [a - b for a, b in zip(m, terms[0])]
            for c, row in rows.items():
                if v[c]:
                    v = _clear(v, row, c)
            pivot = next((c for c, a in enumerate(v) if a), None)
            if pivot is None:
                continue
            for c, row in rows.items():
                if row[pivot]:
                    rows[c] = _clear(row, v, pivot)
            rows[pivot] = v
            if len(rows) == n:
                return None
    free = [j for j in range(n) if j not in rows]
    w = [Fraction(1)] * n
    for c, row in rows.items():
        w[c] = Fraction(-sum(row[j] for j in free), row[c])
    if min(w) <= 0:
        return None
    scale = math.lcm(*(a.denominator for a in w))
    ints = [int(a * scale) for a in w]
    divisor = math.gcd(*ints)
    weights = tuple(a // divisor for a in ints)
    for comp in f.components:
        if len({sum(a * e for a, e in zip(weights, m)) for m in comp}) > 1:
            raise ArithmeticError("the weights leave a component inhomogeneous")
    return weights


def _clear(v: list[int], row: list[int], c: int) -> list[int]:
    """row[c] * v - v[c] * row, which is 0 at c, divided by its content."""
    a, b = row[c], v[c]
    out = [a * x - b * y for x, y in zip(v, row)]
    content = math.gcd(*out)
    return [x // content for x in out] if content > 1 else out


def _checked_socle(
    f: MapSpec, order: MonomialOrder | None = None
) -> tuple[QuotientPresentation, tuple, tuple]:
    """The presentation of Q and the kernel coordinates of E and J, with
    J = dim * E asserted."""
    _, qp = prepare_quotient(f, order)
    socle = socle_element(f, qp)
    jac = jacobian_element(f, qp)
    _assert_jacobian_relation(qp, socle, jac)
    return qp, socle, jac


def _top_socle_index(socle: tuple) -> int:
    """The index of the order-maximal standard monomial with a nonzero socle
    coordinate: the last nonzero one, as the standard monomials ascend."""
    return max(i for i, c in enumerate(socle) if c)


def _assert_jacobian_relation(qp: QuotientPresentation, socle: tuple, jac: tuple) -> None:
    """J = dim * E on kernel coordinates, residues over F_p."""
    p, dim = qp.field.characteristic, qp.dimension
    if p and dim % p == 0:
        return  # the relation J = dim * E carries no information here
    if tuple(dim * e % p if p else dim * e for e in socle) != jac:
        raise ArithmeticError("Jacobian element differs from dimension * socle element")


def _gram_rows(qp: QuotientPresentation, index: int, degree) -> list:
    """Rows r_b(b') = psi(b * b') for psi the coordinate ``index`` (pivot
    * phi), on Q graded by ``degree``, as ``{position: kernel value}`` dicts
    of their nonzero entries (residues over F_p).  psi lives in degree D,
    so r_b is built only for 2 deg b <= D (None elsewhere), and its entries
    lie on its partner columns, those of degree D - deg b.

    r_1 = psi and r_b = r_m M_k, where x_k is the first variable dividing
    b and m = b / x_k.  Standard monomials are closed under division and a
    divisor precedes its multiple in every monomial order, so r_m is
    already built when b comes up in the ascending basis.  r_b(b') =
    r_m(x_k b') is the sum over the nonzeros r_m(t) of r_m(t) M_k[b'][t],
    so r_b is made by scattering each r_m(t) through row t of the transpose
    of M_k, built once per k and dropped on return.
    """
    p = qp.field.characteristic
    position = qp.monomial_index()
    top = degree[index]
    transposes: dict[int, list] = {}
    rows: list = [None] * qp.dimension
    rows[0] = {index: 1}  # the standard monomial 1 comes first
    for i, b in enumerate(qp.standard_monomials[1:], 1):
        if 2 * degree[i] <= top:
            k = next(k for k, e in enumerate(b) if e)
            if k not in transposes:
                transposes[k] = _transpose(qp.matrices[k], qp.dimension)
            transpose = transposes[k]
            row: dict = {}
            for t, a in rows[position[b[:k] + (b[k] - 1,) + b[k + 1 :]]].items():
                for j, c in transpose[t]:
                    row[j] = row.get(j, 0) + a * c
            if p:
                row = {j: a % p for j, a in row.items()}
            rows[i] = {j: a for j, a in row.items() if a}
    return rows


def _transpose(matrix: list[dict], dimension: int) -> list[list[tuple]]:
    """Row t of a sparse matrix given by its columns j (``matrix[j][t]``), as
    a list of (j, entry) pairs, for every t."""
    rows: list[list[tuple]] = [[] for _ in range(dimension)]
    for j, column in enumerate(matrix):
        for t, c in column.items():
            rows[t].append((j, c))
    return rows


def _split_form(qp: QuotientPresentation, socle: tuple, index: int, degree) -> tuple:
    """(h, middle block) of beta_phi on Q graded by ``degree`` (one integer
    per standard monomial), for phi dual to the coordinate ``index`` of the
    socle element's kernel coordinates ``socle``.

    E and phi live in one degree D, so b pairs only with degree D - deg b,
    and ``_gram_rows`` builds r_b only for deg b <= D/2, as a dict of its
    nonzeros.  Each pairing Q_k x Q_{D-k} with k < D/2 must be perfect
    (``_full_rank`` of its sparse rows) and adds dim Q_k hyperbolic planes
    to h.  The middle block Q_{D/2}, the whole Gram matrix under the zero
    degree, is read off its rows as a ``GramForm`` of kernel values: the
    rows of pivot * phi, scaled by 1/pivot.  It is left to ``classify``,
    which refuses it if it is degenerate.
    """
    fld = qp.field
    top = degree[index]
    if any(c and d != top for c, d in zip(socle, degree)):
        raise ArithmeticError("the socle element is not homogeneous")
    slices: dict[int, list[int]] = {}
    for i, d in enumerate(degree):
        slices.setdefault(d, []).append(i)
    for d, part in slices.items():
        if len(slices.get(top - d, ())) != len(part):
            raise DegenerateFormError(f"degrees {d} and {top - d} differ in dimension")
    rows = _gram_rows(qp, index, degree)

    hyperbolic = 0
    for d, part in slices.items():
        if 2 * d < top:
            if not _full_rank([rows[i] for i in part], fld):
                raise DegenerateFormError(f"the pairing of degrees {d} and {top - d} is singular")
            hyperbolic += len(part)
    middle = slices.get(top // 2, []) if top % 2 == 0 else []
    place = {j: at for at, j in enumerate(middle)}
    block = []
    for i in middle:
        dense = [0] * len(middle)
        for j, a in rows[i].items():
            dense[place[j]] = a
        block.append(dense)
    p, pivot = fld.characteristic, socle[index]
    inverse = pow(pivot, -1, p) if p else Fraction(1, pivot)
    return hyperbolic, GramForm(block, fld, inverse)


#: Full rank modulo this prime certifies full rank over Q.
CERTIFICATE_PRIME = 2**61 - 1


def _full_rank(rows: list[dict], fld) -> bool:
    """Whether a square matrix over fld, given by its rows as ``{column:
    kernel value}`` dicts, is invertible.

    Over F_p this is the rank of its residues.  Over Q the rank modulo
    CERTIFICATE_PRIME, where no denominator vanishes, is at most the rank
    over Q, so a full one certifies it; else the exact rank, on Fractions.
    An int is its own residue, and only a Fraction pays for the inverse of
    its denominator.
    """
    n = len(rows)
    if fld.characteristic:
        return _rank(rows, fld.characteristic) == n
    p = CERTIFICATE_PRIME
    if all(type(a) is int or a.denominator % p for row in rows for a in row.values()):
        residues = [
            {j: a if type(a) is int else a.numerator * pow(a.denominator, -1, p) for j, a in row.items()}
            for row in rows
        ]
        if _rank(residues, p) == n:
            return True
    return _rank([{j: Fraction(a) for j, a in row.items()} for row in rows]) == n


def _rank(rows: list[dict], p: int = 0) -> int:
    """Rank of the rows, ``{column: value}`` dicts, by sparse Gaussian
    elimination: of integers modulo p, or exactly over Q when p is 0.

    Each row is reduced in turn by the pivot rows kept so far, at its
    smallest column that holds a pivot, until it is zero or its smallest
    column holds none; then it becomes the pivot row of that column,
    scaled to 1 there.  Only nonzero entries are stored, so the work
    follows the nonzeros and their fill-in.
    """
    pivots: dict = {}  # column -> pivot row, 1 at that column and 0 left of it
    for row in rows:
        if p:
            row = {j: a % p for j, a in row.items()}
        row = {j: a for j, a in row.items() if a}
        while row:
            c = min(row)
            top = pivots.get(c)
            if top is None:
                inverse = pow(row[c], -1, p) if p else 1 / row[c]
                pivots[c] = {j: a * inverse % p if p else a * inverse for j, a in row.items()}
                break
            t = row.pop(c)
            for j, a in top.items():
                if j != c:
                    v = row.get(j, 0) - t * a
                    if p:
                        v %= p
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
    return len(pivots)
