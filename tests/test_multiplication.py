"""The multiplication-matrix core of the quotient algebra.

The library builds the matrices by a recursion over the border monomials;
``normal_form_matrices`` below is the direct construction (one normal form
per border monomial) and serves as its reference oracle.  The Gram matrix
of the pipeline is built from the multiplication matrices;
``pairwise_gram`` is the direct construction (one normal form per pair of
standard monomials) and serves as its reference oracle.
"""

import json
import random

import pytest

from conftest import WEIGHTED, in_ring, random_origin_map

from ekl.cli import main
from ekl.degree import MapSpec, ekl_degree, homogeneous_weights, prepare_quotient
from ekl.localg import (
    GroebnerBasis,
    _packed_terms,
    _packing,
    coordinates,
    groebner,
    matrix_times_vector,
    normal_form,
    origin_supported,
    quotient_presentation,
)
from ekl.poly import DEGREVLEX, LEX, MonomialOrder, Polynomial, mono_mul, parse_poly
from ekl.quotmap import (
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_typeA_partial,
    build_typeBC_full,
)
from ekl.scalar import GF, QQ

XY = ("x", "y")
XYZ = ("x", "y", "z")
F = GF(32003)
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX, "weighted": WEIGHTED}


def normal_form_matrices(qp):
    """M_1..M_n with one normal form per distinct border monomial."""
    index = qp.monomial_index()
    fld = qp.field
    border = {}
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


def assert_matrices_match_oracle(qp) -> None:
    oracle = normal_form_matrices(qp)
    if qp.field.characteristic:  # the kernels store residues over F_p
        oracle = tuple(tuple({i: c.residue for i, c in col.items()} for col in m) for m in oracle)
    assert qp.matrices == oracle


def pairwise_gram(qp, index, pivot):
    """phi(b_i * b_j) / pivot by one normal form per pair (i <= j)."""
    basis = qp.standard_monomials
    fld = qp.field
    scale = fld.one / pivot
    d = qp.dimension
    gram = [[fld.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            product = Polynomial(qp.ring, fld, {mono_mul(basis[i], basis[j]): fld.one})
            nf = normal_form(product, qp.basis)
            assert set(nf.terms) <= set(basis)
            gram[i][j] = gram[j][i] = nf.terms.get(basis[index], fld.zero) * scale
    return tuple(tuple(row) for row in gram)


def assert_gram_matches_oracle(f: MapSpec) -> None:
    res = ekl_degree(f)
    qp = res.quotient
    assert_matrices_match_oracle(qp)
    index = qp.standard_monomials.index(res.functional_monomial)
    assert res.gram == pairwise_gram(qp, index, res.socle.coordinates[index])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_Sn_full(3),
        lambda: build_Sn_full(4),
        lambda: build_typeA_partial([2, 2]),
        lambda: build_typeA_partial([3, 2]),
        lambda: build_typeBC_full(2),
        lambda: build_D_odd_partial(2),
        lambda: build_D_full(3),
    ],
    ids=["Sn3", "Sn4", "A22", "A32", "B2", "Dodd2", "Dfull3"],
)
def test_gram_matches_pairwise_oracle_on_ladder(build):
    assert_gram_matches_oracle(build().map)


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp32003"])
def test_gram_matches_pairwise_oracle_on_random_maps(field):
    rng = random.Random(20261017)
    for _ in range(4):
        f = random_origin_map(rng, XYZ, max_exp=2)
        if field != QQ:
            f = MapSpec.from_strings(XYZ, f.component_texts(), field)
        assert_gram_matches_oracle(f)


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp32003"])
def test_matrices_match_normal_forms_in_every_order(field, oname):
    rng = random.Random(f"matrices-{oname}")
    for _ in range(4):
        f = MapSpec.from_strings(XYZ, random_origin_map(rng, XYZ, max_exp=2).component_texts(), field)
        _, qp = prepare_quotient(f, in_ring(ORDERS[oname], XYZ))
        assert_matrices_match_oracle(qp)


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp32003"])
def test_matrices_match_normal_forms_in_a_quotient_maps_weights(field):
    f = build_typeA_partial([2, 2], field).map
    _, qp = prepare_quotient(f, MonomialOrder("degrevlex", homogeneous_weights(f)))
    assert qp.basis.order.weights == (1, 2, 1, 2)
    assert_matrices_match_oracle(qp)


def test_columns_are_coordinates_of_products():
    f = MapSpec.from_strings(XYZ, ["x^2 + y*z", "y^3", "z^2 - x*y"])
    _, qp = prepare_quotient(f)
    assert_matrices_match_oracle(qp)


def test_border_tail_outside_the_standard_span_is_refused():
    # x^2 + y^2 is not reduced: its tail y^2 is the leading monomial of the
    # other generator, so the column of the border monomial x^2 would
    # leave the span of the standard monomials 1, x, y, x*y
    texts = ("x^2 + y^2", "y^2")
    pk = _packing(DEGREVLEX, 2, 2)
    packed = {max(d): d for d in _packed_terms([parse_poly(t, XY, QQ) for t in texts], pk)}
    gb = GroebnerBasis(DEGREVLEX, XY, QQ, (pk, packed))
    with pytest.raises(ArithmeticError, match="left the standard-monomial span"):
        quotient_presentation(gb)


def test_matrices_commute():
    _, qp = prepare_quotient(build_typeA_partial([2, 2]).map)
    p = qp.field.characteristic
    for j in range(qp.dimension):
        e_j = {j: 1}
        for a in qp.matrices:
            for b in qp.matrices:
                ab = matrix_times_vector(a, matrix_times_vector(b, e_j, p), p)
                ba = matrix_times_vector(b, matrix_times_vector(a, e_j, p), p)
                assert ab == ba


# ---------------------------------------------------------------------------
# the origin test


def presentation(*texts, ring=XY, field=QQ):
    return quotient_presentation(groebner([parse_poly(t, ring, field) for t in texts], ring, field))


def test_origin_rejects_other_zeros():
    assert not origin_supported(presentation("x^2 - x", "y^2"))
    assert not origin_supported(presentation("x^2 - x", "y^2", field=F))


def test_origin_accepts_nilpotent_maps():
    assert origin_supported(presentation("x^3 + y^2", "x*y"))
    assert origin_supported(presentation("x^2 + y*z", "y^3", "z^2 - x*y", ring=XYZ))
    rng = random.Random(7)
    for _ in range(3):
        f = random_origin_map(rng, XYZ)
        _, qp = prepare_quotient(f)
        assert origin_supported(qp)


def test_origin_rejects_other_zeros_through_cli(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "components": ["x^2 - x", "y^2"]}))
    assert main(["degree", str(path)]) == 3
    assert "not supported at origin" in capsys.readouterr().err


def test_standard_monomials_have_standard_predecessors_under_lex():
    f = MapSpec.from_strings(XYZ, ["x^2 + y*z", "y^3", "z^2 - x*y"])
    _, qp = prepare_quotient(f, LEX)
    assert_matrices_match_oracle(qp)
    position = qp.monomial_index()
    assert qp.standard_monomials[0] == (0, 0, 0)
    for j, b in enumerate(qp.standard_monomials[1:], start=1):
        k = next(k for k, e in enumerate(b) if e)
        m = b[:k] + (b[k] - 1,) + b[k + 1 :]
        assert position[m] < j
    res = ekl_degree(f, order=LEX)
    index = qp.standard_monomials.index(res.functional_monomial)
    assert res.gram == pairwise_gram(qp, index, res.socle.coordinates[index])
