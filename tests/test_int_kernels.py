"""The quotient algebra's kernels compute on Python ints.

Over F_p ``QuotientPresentation.matrices`` stores int residues in [1, p), and
``poly_det``, the origin test and ``_gram_rows`` carry residues in [0, p)
through their sums and products.  Over Q they carry ints wherever the
values are integral.  The oracles below are the same kernels on field
elements throughout (``Fraction`` over Q, ``PrimeFieldElement`` over F_p),
as the library computed them before: the values must be equal (over F_p,
the oracle's ``.residue`` values), and every value that leaves the kernels
(``AlgebraElement`` coordinates, Gram entries, every ``GramForm`` entry)
must still be a ``Fraction`` over Q and a ``PrimeFieldElement`` over F_p.
"""

from fractions import Fraction

import pytest

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
    linear_decompose,
    strip_solved,
)
from ekl.poly import partial_derivative
from ekl.scalar import GF, QQ, PrimeFieldElement
from test_graded import LADDER, LARGE, P, family_spec
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


# ---------------------------------------------------------------------------
# the kernels against the oracles


def check_kernels(f: MapSpec) -> bool:
    """Compare one map's kernels with the oracles; True when some matrix
    entry over Q is not integral."""
    fld = f.field
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

    n = len(f.ring)
    jacobian = [[partial_derivative(f.components[i], f.ring[j]) for j in range(n)] for i in range(n)]
    assert result.socle.coordinates == field_poly_det(linear_decompose(f), qp, matrices)
    assert result.jacobian.coordinates == field_poly_det(jacobian, qp, matrices)
    values = [*result.socle.coordinates, *result.jacobian.coordinates]
    values += [c for row in result.gram for c in row]
    assert all(type(c) is field_type for c in values)

    index = qp.standard_monomials.index(result.functional_monomial)
    pivot = result.socle.coordinates[index]
    assert [list(row) for row in result.gram] == field_gram_rows(qp, matrices, index, pivot)
    # the rows start r_1 at the kernels' one and are scaled by 1/pivot later;
    # the zero degree is one dense slice
    unscaled = _gram_rows(qp, index, [0] * qp.dimension, {0: list(range(qp.dimension))})
    if fld != QQ:
        assert all(type(c) is int and 0 <= c < fld.characteristic for row in unscaled for c in row)
    assert [[fld.from_int(c) / pivot for c in row] for row in unscaled] == [list(row) for row in result.gram]
    return any(type(c) is Fraction for c in entries)


def recorded_forms(monkeypatch):
    """The GramForms that ``ekl.degree`` classifies, recorded as they go by."""
    forms = []
    real = ekl.degree.classify

    def recording(form, fld):
        forms.append(form)
        return real(form, fld)

    monkeypatch.setattr(ekl.degree, "classify", recording)
    return forms


@pytest.mark.parametrize(
    "args, field",
    [(a, "q") for a in LADDER + SN6_B4_D4] + [(a, f"fp:{P}") for a in LADDER],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_family_kernels_equal_the_field_oracles(monkeypatch, args, field):
    f = family_spec(args, field).map
    assert not check_kernels(f)  # the family matrices are integral over Q
    forms = recorded_forms(monkeypatch)
    degree_class(f)
    field_type = Fraction if field == "q" else PrimeFieldElement
    assert forms and all(type(c) is field_type for form in forms for row in form.entries for c in row)


@pytest.mark.parametrize("fld", [QQ, GF(P)], ids=["q", f"fp{P}"])
def test_random_map_kernels_equal_the_field_oracles(monkeypatch, fld):
    maps = [MapSpec.from_json(m.to_json(), fld) for m in load_workloads().random_maps(1)]
    mixed = sum(check_kernels(f) for f in maps)
    # some basis tails over Q are not integral, so the mixed int/Fraction path runs
    assert mixed > 0 if fld == QQ else mixed == 0
    forms = recorded_forms(monkeypatch)
    for f in maps:
        degree_class(f)
    field_type = Fraction if fld == QQ else PrimeFieldElement
    assert all(type(c) is field_type for form in forms for row in form.entries for c in row)


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
    rows = _gram_rows(qp, index, degree, slices)
    return qp, index, socle.coordinates[index], degree, slices, rows


@pytest.mark.parametrize("args", LADDER + LARGE, ids=" ".join)
def test_gram_rows_exist_below_the_middle_on_their_partner_columns(args):
    _, index, _, degree, slices, rows = graded_rows(args, "q")
    top = degree[index]
    assert len(slices) > 1
    assert [i for i, r in enumerate(rows) if r is not None] == [
        i for i, d in enumerate(degree) if 2 * d <= top
    ]
    assert all(len(r) == len(slices[top - d]) for r, d in zip(rows, degree) if r is not None)


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
            assert [qp.field.from_int(c) / pivot for c in row] == [oracle[i][j] for j in partner]
            assert sum(1 for c in oracle[i] if c) == sum(1 for j in partner if oracle[i][j])


# ---------------------------------------------------------------------------
# the pairing certificate on int entries


def test_full_rank_of_int_blocks(monkeypatch):
    ranks = []
    real_rank = ekl.degree._rank

    def spy(matrix, p=0):
        values = [a for row in matrix for a in row]
        assert not any(isinstance(a, float) for a in values)
        if not p:
            assert all(type(a) is Fraction for a in values)
        ranks.append(p)
        return real_rank(matrix, p)

    monkeypatch.setattr(ekl.degree, "_rank", spy)
    # short modulo the prime, full over Q through the exact fallback
    assert _full_rank([[2**61 - 1, 0], [0, 1]], QQ)
    assert ranks == [CERTIFICATE_PRIME, 0]
    ranks.clear()
    assert not _full_rank([[2, 4], [3, 6]], QQ)
    assert ranks == [CERTIFICATE_PRIME, 0]
    ranks.clear()
    assert _full_rank([[2, Fraction(1, 3)], [3, 6]], QQ)
    assert ranks == [CERTIFICATE_PRIME]
    # over F_p the residue rows are ranked as they are
    ranks.clear()
    assert not _full_rank([[1, 3], [2, 6]], GF(7))
    assert _full_rank([[1, 3], [2, 5]], GF(7))
    assert ranks == [7, 7]
