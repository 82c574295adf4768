"""The quotient algebra's kernels and the class path's front end compute
on Python ints.

Over F_p ``QuotientPresentation.matrices`` stores int residues in [1, p), and
``poly_det``, the origin test and ``_gram_rows`` carry residues in [0, p)
through their sums and products.  Over Q they carry ints wherever the
values are integral.  The polynomials that feed the determinants are
``{monomial: kernel value}`` dicts too: the quotient-map builders'
products, ``strip_solved``'s substitution, the split rows of
``linear_decompose`` and the Jacobian rows, and so are the components of
every ``MapSpec``: the builders' and the stripped map's.  ``poly_det``
returns the coordinates of E and J as kernel values.  The oracles below are
the same code on field elements throughout (``Fraction`` over Q,
``PrimeFieldElement`` over F_p), as the library computed them before: the
values must be equal (over F_p, the oracle's ``.residue`` values).  The
values that leave the kernels for a report (the ``AlgebraElement``
coordinates of ``EKLResult``, ``EKLResult.gram`` and the stripped map's
unit) must still be a ``Fraction`` over Q and a ``PrimeFieldElement`` over
F_p.  The Gram block that ``ekl.degree`` hands to ``classify`` stays on
kernel values: every ``GramForm`` entry and scale is an int or a Fraction
over Q and a residue over F_p.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import pytest

from conftest import MAP_FAILURES, components, kernel_matrix, map_spec
from poly_oracle import Poly, partial_derivative

import ekl.degree
from ekl.degree import (
    CERTIFICATE_PRIME,
    MapSpec,
    _checked_socle,
    _full_rank,
    _gram_rows,
    _top_socle_index,
    degree_class,
    ekl_degree,
    homogeneous_weights,
    strip_solved,
)
from ekl.poly import Polynomial, mono_mul
from ekl.scalar import GF, QQ, PrimeFieldElement
from test_graded import LADDER, LARGE, P, family_spec, sparse
from test_strip import load_workloads

SN6_B4_D4 = LARGE[:3]


# ---------------------------------------------------------------------------
# the oracles: the kernels on field elements


def add_multiple(out, a, vector, zero):
    """out += a * vector on field elements, dropping entries that cancel."""
    for i, c in vector.items():
        s = out.get(i, zero) + a * c
        if s:
            out[i] = s
        else:
            out.pop(i, None)


def times(columns, vector, zero):
    """M * v on field elements."""
    out: dict = {}
    for j, a in vector.items():
        add_multiple(out, a, columns[j], zero)
    return out


def kernel_matrices(matrices, fld):
    """Field-element matrices as the kernels store them: residues over F_p."""
    if not fld.characteristic:
        return matrices
    return tuple(tuple({i: c.residue for i, c in column.items()} for column in m) for m in matrices)


def field_multiplication_matrices(qp):
    """M_1..M_n by the border recursion, with field-element entries."""
    index = qp.monomial_index()
    fld = qp.field
    lead = dict(zip(qp.basis.leading_monomials(), qp.basis.generators))
    products = [
        [b[:k] + (b[k] + 1,) + b[k + 1 :] for b in qp.standard_monomials] for k in range(len(qp.ring))
    ]
    columns = {m: {i: fld.one} for m, i in index.items()}
    border = {m for row in products for m in row if m not in index}
    for m in sorted(border, key=qp.basis.order.key):
        if m in lead:
            column = {index[t]: -c for t, c in lead[m].terms.items() if t != m}
        else:
            j = next(j for j in range(len(m)) if m[j] and m[:j] + (m[j] - 1,) + m[j + 1 :] not in index)
            column = {}
            for i, c in columns[m[:j] + (m[j] - 1,) + m[j + 1 :]].items():
                add_multiple(column, c, columns[products[j][i]], fld.zero)
        columns[m] = column
    return tuple(tuple(columns[m] for m in row) for row in products)


def field_poly_det(matrix, qp, matrices):
    """Coordinates of det(matrix) in Q by expansion in minors, on field elements."""
    zero = qp.field.zero
    minors = {0: {qp.monomial_index()[(0,) * len(qp.ring)]: qp.field.one}}
    for k in range(len(matrix) - 1, -1, -1):
        wider: dict = {}
        for used, minor in minors.items():
            sign = 1
            for j, entry in enumerate(matrix[k]):
                if used >> j & 1:
                    sign = -sign
                    continue
                target = wider.setdefault(used | 1 << j, {})
                for m, c in entry.terms.items():
                    shifted = minor
                    for columns, e in zip(matrices, m):
                        for _ in range(e):
                            shifted = times(columns, shifted, zero)
                    add_multiple(target, c if sign == 1 else -c, shifted, zero)
        minors = {cols: vector for cols, vector in wider.items() if vector}
    det = minors.get((1 << len(matrix)) - 1, {})
    return tuple(det.get(i, zero) for i in range(qp.dimension))


def field_gram_rows(qp, matrices, index, pivot):
    """All rows r_b = phi(b * -) for phi = (coordinate ``index``) / pivot."""
    fld, n = qp.field, qp.dimension
    position = qp.monomial_index()
    rows = [[fld.zero] * n]
    rows[0][index] = fld.one / pivot
    for b in qp.standard_monomials[1:]:
        k = next(k for k, e in enumerate(b) if e)
        r = rows[position[b[:k] + (b[k] - 1,) + b[k + 1 :]]]
        rows.append([sum((r[t] * c for t, c in matrices[k][j].items() if r[t]), fld.zero) for j in range(n)])
    return rows


def field_linear_decompose(f):
    """Rows a_ij with f_i = sum_j a_ij * x_j, each monomial in the column of
    its first variable, as Polynomials."""
    n = len(f.ring)
    fld = f.field
    rows = []
    for comp in components(f):
        cols = [dict() for _ in range(n)]
        for mono, coeff in comp.terms.items():
            j = next(k for k, e in enumerate(mono) if e > 0)
            reduced = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
            cols[j][reduced] = cols[j].get(reduced, fld.zero) + coeff
        rows.append([Polynomial(f.ring, fld, d) for d in cols])
    return rows


def field_jacobian(f):
    """The Jacobian rows d f_i / d x_j as Polynomials."""
    return [[partial_derivative(c, v) for v in f.ring] for c in components(f)]


def field_strip_solved(f):
    """``strip_solved`` on Polynomials: substitute x_k = -h/c for the solved
    component c*x_k + h with the fewest terms, while more than one variable
    is left; f and 1 when a component would vanish."""
    g, u, zero = f, f.field.one, f.field.zero
    while len(g.ring) > 1:
        n, g_components = len(g.ring), components(g)
        pairs = [
            (len(p.terms), i, k, p.terms[e])
            for i, p in enumerate(g_components)
            for k, e in enumerate(tuple(int(j == k) for j in range(n)) for k in range(n))
            if e in p.terms and sum(1 for m in p.terms if m[k]) == 1
        ]
        if not pairs:
            break
        _, i, k, c = min(pairs)
        ring = g.ring[:k] + g.ring[k + 1 :]
        root = {m[:k] + m[k + 1 :]: -a / c for m, a in g_components[i].terms.items() if not m[k]}
        powers = [None, Poly(ring, f.field, root)]  # powers[e] = (-h/c)^e
        comps = []
        for p in g_components[:i] + g_components[i + 1 :]:
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
        g = map_spec(comps)
    return g, u


def field_times(p, q):
    """The product of two polynomials in one variable, as lists of Polynomials."""
    out = [Poly.zero(p[0].ring, p[0].field)] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] = out[a + b] + x * y
    return out


def field_components(spec):
    """The components of ``quotmap.build_quotient`` for the spec's type,
    blocks and ring, multiplied out on Polynomials."""
    ring, field, blocks, label = spec.map.ring, spec.map.field, spec.blocks, spec.weyl_type
    xs = [Poly.variable(v, ring, field) for v in ring]
    one = Poly.constant(1, ring, field)
    cuts = [0, *accumulate(blocks)]
    series = [[one] + xs[i:j] for i, j in zip(cuts, cuts[1:])]
    if label == "A":
        factors = series
    else:
        factors = []
        for a in series:
            even = field_times(a, [-y if j % 2 else y for j, y in enumerate(a)])[::2]
            factors.append([-c if j % 2 else c for j, c in enumerate(even)])
        tail_coeffs = xs[cuts[-1] :]
        if label == "D" and tail_coeffs:
            tail_coeffs[-1] = tail_coeffs[-1] * tail_coeffs[-1]
        factors.append([one] + tail_coeffs)
    components = reduce(field_times, factors)[1 : len(ring) + 1]
    if label == "D":
        components[-1] = reduce(Poly.__mul__, [a[-1] for a in series] + xs[cuts[-1] :][-1:])
    return components


# ---------------------------------------------------------------------------
# the kernels against the oracles


def is_kernel_value(c, fld) -> bool:
    """A nonzero int residue over F_p; a nonzero int or Fraction over Q."""
    if fld.characteristic:
        return type(c) is int and 0 < c < fld.characteristic
    return type(c) in (int, Fraction) and c != 0


def is_canonical_map(f: MapSpec) -> bool:
    """Whether every coefficient of f is a kernel value, an int where
    integral over Q."""
    values = [c for comp in f.components for c in comp.values()]
    if f.field.characteristic:
        return all(is_kernel_value(c, f.field) for c in values)
    return all(is_kernel_value(c, f.field) and type(c) is (int if c.denominator == 1 else Fraction) for c in values)


def recorded_dets(monkeypatch):
    """(matrix, qp, element) of every ``ekl.degree.poly_det`` call."""
    calls = []
    real = ekl.degree.poly_det

    def recording(matrix, qp):
        element = real(matrix, qp)
        calls.append((matrix, qp, element))
        return element

    monkeypatch.setattr(ekl.degree, "poly_det", recording)
    return calls


def check_determinants(f: MapSpec, calls, matrices=None):
    """f's two recorded ``poly_det`` calls, E and then J: the split and the
    Jacobian rows equal the oracles' and the coordinates their determinants."""
    (_, qp, _), _ = calls
    matrices = matrices or field_multiplication_matrices(qp)
    for (rows, _, element), oracle in zip(calls, [field_linear_decompose(f), field_jacobian(f)]):
        assert rows == kernel_matrix(oracle, qp)
        assert all(is_kernel_value(c, f.field) for row in rows for entry in row for c in entry.values())
        assert all(not c or is_kernel_value(c, f.field) for c in element)
        assert tuple(map(f.field.from_int, element)) == field_poly_det(oracle, qp, matrices)


def check_strip(f: MapSpec):
    """``strip_solved`` against the oracle: the same map, in canonical kernel
    values, and the same unit, in field values."""
    g, u = strip_solved(f)
    g0, u0 = field_strip_solved(f)
    assert (g is f) == (g0 is f)
    assert g == g0 and is_canonical_map(g)
    assert u == u0 and type(u) is type(u0)
    return g, u


def check_kernels(f: MapSpec, calls) -> bool:
    """Compare one map's kernels with the oracles, with ``calls`` recording
    ``poly_det``; True when some matrix entry over Q is not integral."""
    fld = f.field
    calls.clear()
    result = ekl_degree(f)
    qp = result.quotient
    matrices = field_multiplication_matrices(qp)
    assert qp.matrices == kernel_matrices(matrices, fld)
    entries = [c for matrix in qp.matrices for column in matrix for c in column.values()]
    if fld == QQ:
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in entries)
        field_type = Fraction
    else:
        assert all(type(c) is int and 0 < c < fld.characteristic for c in entries)
        field_type = PrimeFieldElement

    check_determinants(f, calls, matrices)
    assert [tuple(map(fld.from_int, e)) for _, _, e in calls] == [
        result.socle.coordinates,
        result.jacobian.coordinates,
    ]
    values = [*result.socle.coordinates, *result.jacobian.coordinates]
    values += [c for row in result.gram for c in row]
    assert all(type(c) is field_type for c in values)

    index = qp.standard_monomials.index(result.functional_monomial)
    pivot = result.socle.coordinates[index]
    assert [list(row) for row in result.gram] == field_gram_rows(qp, matrices, index, pivot)
    # the rows start r_1 at the kernels' one and are scaled by 1/pivot later;
    # the zero degree is one dense slice
    unscaled = _gram_rows(qp, index, [0] * qp.dimension)
    if fld != QQ:
        assert all(type(c) is int and 0 < c < fld.characteristic for row in unscaled for c in row.values())
    dense = [[fld.from_int(row.get(j, 0)) / pivot for j in range(qp.dimension)] for row in unscaled]
    assert dense == [list(row) for row in result.gram]
    return any(type(c) is Fraction for c in entries)


def is_kernel_form(form) -> bool:
    """Whether every entry and the scale of ``form`` is a kernel value: an
    int or a Fraction over Q, an int residue over F_p."""
    p = form.field.characteristic
    values = [form.scale, *(c for row in form.entries for c in row)]
    if p:
        return all(type(c) is int and 0 <= c < p for c in values)
    return all(type(c) in (int, Fraction) for c in values)


def recorded_forms(monkeypatch):
    """The GramForms that ``ekl.degree`` classifies, recorded as they go by."""
    forms = []
    real = ekl.degree.classify

    def recording(form):
        forms.append(form)
        return real(form)

    monkeypatch.setattr(ekl.degree, "classify", recording)
    return forms


@pytest.mark.parametrize(
    "args, field",
    [(a, "q") for a in LADDER + SN6_B4_D4] + [(a, f"fp:{P}") for a in LADDER],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_family_kernels_equal_the_field_oracles(monkeypatch, args, field):
    f = family_spec(args, field).map
    calls = recorded_dets(monkeypatch)
    assert not check_kernels(f, calls)  # the family matrices are integral over Q
    g, _ = check_strip(f)
    if g is not f:
        calls.clear()
        _checked_socle(g)
        check_determinants(g, calls)
    forms = recorded_forms(monkeypatch)
    degree_class(f)
    assert forms and all(is_kernel_form(form) for form in forms)


#: B/C/D members over blocks of 2 and more, where A_i(t) A_i(-t) has more than two terms
BLOCK_MEMBERS = [
    ("--type", "B", "--rank", "3", "--blocks", "2"),
    ("--type", "C", "--rank", "4", "--blocks", "3"),
    ("--type", "D", "--rank", "6", "--blocks", "2,2"),
    ("--type", "D", "--rank", "7", "--blocks", "5"),
]


@pytest.mark.parametrize(
    "args, field",
    [(a, f) for f in ("q", f"fp:{P}") for a in LADDER + LARGE + BLOCK_MEMBERS],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_family_builders_and_strip_equal_the_field_oracles(args, field):
    spec = family_spec(args, field)
    assert spec.map == map_spec(field_components(spec))
    assert is_canonical_map(spec.map) and all(type(c) is int for comp in spec.map.components for c in comp.values())
    check_strip(spec.map)


#: Scales for the components of the random maps: the ideal, the quotient
#: and the zero set stay, and solved components get coefficients c != +-1
#: whose -a/c is not integral.
SCALES = (Fraction(2, 3), Fraction(-5, 4), Fraction(3, 2))


@pytest.mark.parametrize("fld", [QQ, GF(P), GF(7)], ids=["q", f"fp{P}", "fp7"])
def test_random_map_kernels_equal_the_field_oracles(monkeypatch, fld):
    maps = [MapSpec.from_json(m.to_json(), fld) for m in load_workloads().random_maps(1)]
    maps += [map_spec([c.scale(a) for c, a in zip(components(f), SCALES)]) for f in maps]
    calls = recorded_dets(monkeypatch)
    mixed = answered = units = fractional = 0
    for f in maps:
        g, u = check_strip(f)
        units += u not in (fld.one, -fld.one)
        fractional += any(c.denominator != 1 for p in g.components for c in p.values()) if fld == QQ else 0
        try:
            mixed += check_kernels(f, calls)
            if g is not f:
                calls.clear()
                _checked_socle(g)
                check_determinants(g, calls)
        except MAP_FAILURES:
            assert fld == GF(7)  # the unit 7 of some maps vanishes there
            continue
        answered += 1
    assert units > 0 and (fractional > 0 if fld == QQ else True)
    assert answered > len(maps) // 2 if fld == GF(7) else answered == len(maps)
    # some basis tails over Q are not integral, so the mixed int/Fraction path runs
    assert mixed > 0 if fld == QQ else mixed == 0
    forms = recorded_forms(monkeypatch)
    for f in maps:
        try:
            degree_class(f)
        except MAP_FAILURES:
            assert fld == GF(7)
    assert forms and all(is_kernel_form(form) for form in forms)


# ---------------------------------------------------------------------------
# the graded row layout: each row only on the columns it pairs with


def graded_rows(args, field):
    """(qp, index, pivot, degree, slices, rows) as ``degree_class`` builds
    them for a family member: its stripped map, graded by its weights."""
    g = strip_solved(family_spec(args, field).map)[0]
    weights = homogeneous_weights(g)
    qp, socle, _ = _checked_socle(g)
    degree = [sum(w * e for w, e in zip(weights, b)) for b in qp.standard_monomials]
    index = _top_socle_index(socle)
    slices: dict = {}
    for i, d in enumerate(degree):
        slices.setdefault(d, []).append(i)
    rows = _gram_rows(qp, index, degree)
    return qp, index, qp.field.from_int(socle[index]), degree, slices, rows


@pytest.mark.parametrize("args", LADDER + LARGE, ids=" ".join)
def test_gram_rows_exist_below_the_middle_on_their_partner_columns(args):
    _, index, _, degree, slices, rows = graded_rows(args, "q")
    top = degree[index]
    assert len(slices) > 1
    assert [i for i, r in enumerate(rows) if r is not None] == [
        i for i, d in enumerate(degree) if 2 * d <= top
    ]
    assert all(set(r) <= set(slices[top - d]) for r, d in zip(rows, degree) if r is not None)


@pytest.mark.parametrize(
    "args, field",
    [(a, f) for f in ("q", f"fp:{P}") for a in LADDER + LARGE],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_gram_rows_equal_the_dense_oracle_on_their_partner_columns(args, field):
    qp, index, pivot, degree, slices, rows = graded_rows(args, field)
    top = degree[index]
    oracle = field_gram_rows(qp, field_multiplication_matrices(qp), index, pivot)
    for i, row in enumerate(rows):
        if row is not None:
            partner = slices[top - degree[i]]
            assert [qp.field.from_int(row.get(j, 0)) / pivot for j in partner] == [oracle[i][j] for j in partner]
            assert set(row) == {j for j, c in enumerate(oracle[i]) if c}


# ---------------------------------------------------------------------------
# the pairing certificate on int entries, and the sparse rank against the
# dense elimination it replaced


def dense_rank(matrix: list[list], p: int = 0) -> int:
    """Rank by Gaussian elimination of a dense matrix: of integers modulo p,
    or exactly over Q when p is 0."""
    rows = [list(row) for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inverse = pow(top[c], -1, p) if p else 1 / top[c]
        for row in rows[rank + 1 :]:
            if row[c]:
                t = row[c] * inverse
                row[c:] = [a - t * b for a, b in zip(row[c:], top[c:])]
                if p:
                    row[c:] = [a % p for a in row[c:]]
        rank += 1
    return rank


def seeded_block(rng, n: int, p: int) -> list[list]:
    """A sparse square block of residues modulo p, or of ints and Fractions
    when p is 0; about a third of them are a product through fewer than n
    dimensions, so singular."""

    def entry():
        if rng.random() < 0.6:
            return 0
        a = rng.randint(-9, 9)
        return a % p if p else Fraction(a, rng.choice((1, 1, 2, 3)))

    if n > 1 and rng.random() < 0.35:
        r = rng.randint(0, n - 1)
        left = [[entry() for _ in range(r)] for _ in range(n)]
        right = [[entry() for _ in range(n)] for _ in range(r)]
        block = [[sum((a * b for a, b in zip(row, column)), 0) for column in zip(*right)] for row in left]
        return [[a % p for a in row] for row in block] if p else block
    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("p", [7, P, CERTIFICATE_PRIME, 0])
def test_the_sparse_rank_equals_the_dense_oracle_on_seeded_blocks(p):
    rng = random.Random(f"rank-{p}")
    full = singular = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        block = seeded_block(rng, n, p)
        rank = ekl.degree._rank([{j: a for j, a in enumerate(row) if a} for row in block], p)
        assert rank == dense_rank(block, p), block
        full += rank == n
        singular += rank < n
    assert full > 50 and singular > 50



def test_full_rank_of_int_blocks(monkeypatch):
    ranks = []
    real_rank = ekl.degree._rank

    def spy(rows, p=0):
        values = [a for row in rows for a in row.values()]
        assert not any(isinstance(a, float) for a in values)
        if not p:
            assert all(type(a) is Fraction for a in values)
        ranks.append(p)
        return real_rank(rows, p)

    monkeypatch.setattr(ekl.degree, "_rank", spy)
    # short modulo the prime, full over Q through the exact fallback
    assert _full_rank(sparse([[2**61 - 1, 0], [0, 1]]), QQ)
    assert ranks == [CERTIFICATE_PRIME, 0]
    ranks.clear()
    assert not _full_rank(sparse([[2, 4], [3, 6]]), QQ)
    assert ranks == [CERTIFICATE_PRIME, 0]
    ranks.clear()
    assert _full_rank(sparse([[2, Fraction(1, 3)], [3, 6]]), QQ)
    assert ranks == [CERTIFICATE_PRIME]
    # over F_p the residue rows are ranked as they are
    ranks.clear()
    assert not _full_rank(sparse([[1, 3], [2, 6]]), GF(7))
    assert _full_rank(sparse([[1, 3], [2, 5]]), GF(7))
    assert ranks == [7, 7]
