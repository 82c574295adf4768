import json
import random
from fractions import Fraction

import pytest

from conftest import (
    components,
    compose_maps,
    in_quotient,
    linear_map,
    map_spec,
    poly,
    polynomial_matrix,
    random_origin_map,
    random_unipotent,
    reference_poly_det,
)

from ekl.degree import (
    MapSpec,
    NotSupportedAtOriginError,
    ekl_degree,
    jacobian_element,
    linear_decompose,
    prepare_quotient,
    socle_element,
)
from ekl.gw import gw_equal, gw_mul, unit_class
from ekl.localg import coordinates
from ekl.poly import parse_poly
from ekl.scalar import GF, QQ, SquareClass
from poly_oracle import Poly

XY = ("x", "y")


def M(ring, *texts, field=QQ):
    return MapSpec.from_strings(ring, texts, field)


# ---------------------------------------------------------------------------
# map specs

def test_mapspec_validation():
    with pytest.raises(ValueError):
        M(XY, "x + 1", "y")  # nonzero constant term
    with pytest.raises(ValueError):
        MapSpec(XY, QQ, (parse_poly("x", XY),))  # not square
    with pytest.raises(ValueError):
        MapSpec(XY, QQ, (parse_poly("x", XY), parse_poly("x", ("x", "y", "z"))))
    with pytest.raises(ValueError):
        MapSpec(("x", "x"), QQ, (parse_poly("x", XY), parse_poly("y", XY)))


def test_mapspec_holds_kernel_values_of_its_field():
    f = M(XY, "x - 3/2*y", "5*y^2", field=GF(7))
    assert f.field == GF(7)
    assert f.components == ({(1, 0): 1, (0, 1): 2}, {(0, 2): 5})
    assert M(XY, "x - 3/2*y", "4/2*y^2").components == ({(1, 0): 1, (0, 1): Fraction(-3, 2)}, {(0, 2): 2})
    with pytest.raises(ValueError, match="kernel values"):
        MapSpec(XY, GF(7), (parse_poly("x + 1/2*y", XY), parse_poly("y", XY)))
    with pytest.raises(ValueError, match="kernel values"):
        MapSpec(XY, GF(7), ({(1, 0): 7}, {(0, 1): 1}))  # a residue outside [1, 7)
    with pytest.raises(ValueError, match="kernel values"):
        MapSpec(XY, QQ, ({(1, 0): 1}, {(0, 1): 0}))  # a zero coefficient
    with pytest.raises(ValueError, match="kernel values"):
        MapSpec(XY, GF(7), ({(1, 0): GF(7).one}, {(0, 1): 1}))  # a field value


def test_map_from_polynomials_of_two_fields_or_rings_is_refused():
    # a map over Q with a component over F_7 once got past the constructor
    # and crashed the pipeline
    x2, y3 = poly("x^2", XY), poly("y^3", XY, GF(7))
    for pair in ((x2, y3), (y3, x2)):
        with pytest.raises(ValueError, match="different fields"):
            map_spec(pair)
    with pytest.raises(ValueError, match="different rings"):
        map_spec([x2, poly("z^3", ("x", "z"))])
    assert map_spec([x2, poly("y^3", XY)]) == M(XY, "x^2", "y^3")


def test_mapspec_json_roundtrip():
    spec = M(XY, "x + y", "x*y")
    text = spec.to_json(comment="test")
    data = json.loads(text)
    assert data["comment"] == "test"
    again = MapSpec.from_json(text)
    assert again == spec


# ---------------------------------------------------------------------------
# linear decomposition

def test_linear_decompose_examples():
    f = M(XY, "x + y", "x*y")
    rows = polynomial_matrix(linear_decompose(f), f)
    assert [[str(e) for e in row] for row in rows] == [["1", "1"], ["y", "0"]]

    f2 = M(XY, "x^2 + x*y", "y")
    rows2 = polynomial_matrix(linear_decompose(f2), f2)
    assert [str(e) for e in rows2[0]] == ["x + y", "0"]

    f3 = M(("x",), "3*x")
    rows3 = polynomial_matrix(linear_decompose(f3), f3)
    assert [[str(e) for e in row] for row in rows3] == [["3"]]


def test_linear_decompose_reconstructs_components():
    rng = random.Random(51)
    for _ in range(20):
        f = random_origin_map(rng)
        rows = polynomial_matrix(linear_decompose(f), f)
        for i, comp in enumerate(components(f)):
            acc = Poly.zero(f.ring, f.field)
            for j, name in enumerate(f.ring):
                acc = acc + rows[i][j] * Poly.variable(name, f.ring, f.field)
            assert acc == comp


def test_socle_independent_of_splitting():
    # reassigning monomials to other admissible columns must not change
    # det(a_ij) in the quotient
    rng = random.Random(53)
    for _ in range(15):
        f = random_origin_map(rng)
        _, qp = prepare_quotient(f)
        canonical = socle_element(f, qp)
        n = len(f.ring)
        rows = []
        for comp in components(f):
            cols = [dict() for _ in range(n)]
            for mono, coeff in comp.terms.items():
                choices = [k for k, e in enumerate(mono) if e > 0]
                j = rng.choice(choices)
                reduced = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
                cols[j][reduced] = cols[j].get(reduced, f.field.zero) + coeff
            rows.append([Poly(f.ring, f.field, d) for d in cols])
        alt = coordinates(reference_poly_det(rows), qp)
        assert alt.coordinates == tuple(map(f.field.from_int, canonical))


# ---------------------------------------------------------------------------
# socle and Jacobian elements

def test_socle_examples():
    f = M(XY, "x + y", "x*y")
    _, qp = prepare_quotient(f)
    el = socle_element(f, qp)
    assert el == (0, -1) and str(in_quotient(el, qp)) == "-1*y"

    f1 = M(("x",), "x^2")
    _, qp1 = prepare_quotient(f1)
    assert str(in_quotient(socle_element(f1, qp1), qp1)) == "x"

    f2 = M(XY, "x", "y")
    _, qp2 = prepare_quotient(f2)
    assert str(in_quotient(socle_element(f2, qp2), qp2)) == "1"


def test_jacobian_examples():
    f = M(XY, "x + y", "x*y")
    _, qp = prepare_quotient(f)
    assert str(in_quotient(jacobian_element(f, qp), qp)) == "-2*y"

    f2 = M(XY, "x", "y")
    _, qp2 = prepare_quotient(f2)
    assert str(in_quotient(jacobian_element(f2, qp2), qp2)) == "1"

    f3 = M(("x",), "x^2")
    _, qp3 = prepare_quotient(f3)
    assert str(in_quotient(jacobian_element(f3, qp3), qp3)) == "2*x"


def test_jacobian_equals_dim_times_socle():
    rng = random.Random(57)
    for _ in range(25):
        f = random_origin_map(rng)
        _, qp = prepare_quotient(f)
        socle = socle_element(f, qp)
        jac = jacobian_element(f, qp)
        assert tuple(qp.dimension * c for c in socle) == jac


# ---------------------------------------------------------------------------
# the full pipeline

def test_ekl_degree_spec_examples():
    assert str(ekl_degree(M(XY, "x + y", "x*y")).gw_class) == "1<1> + 1<-1>"
    assert str(ekl_degree(M(("x",), "x")).gw_class) == "1<1>"
    assert str(ekl_degree(M(("x",), "x^2")).gw_class) == "1<1> + 1<-1>"
    res = ekl_degree(M(("x",), "3*x"))
    assert res.gw_class.diagonal == (SquareClass(3),)
    assert res.gram == ((Fraction(1, 3),),)


def test_rank_equals_dimension():
    rng = random.Random(59)
    for _ in range(15):
        f = random_origin_map(rng)
        res = ekl_degree(f)
        assert res.gw_class.rank == res.dimension


def test_rejects_unsupported_at_origin():
    with pytest.raises(NotSupportedAtOriginError):
        ekl_degree(M(XY, "x*(x - 1)", "y"))


def test_monomial_powers():
    # c x^d: hyperbolic for even d, (d-1)/2 hyperbolics plus <c> for odd d
    for c in (1, 2, -3):
        for d in (1, 2, 3, 4):
            res = ekl_degree(M(("x",), f"{c}*x^{d}" if c != 1 else f"x^{d}"))
            h = d // 2
            if d % 2 == 0:
                expect = units_diag([1, -1] * h)
            else:
                expect = units_diag([1, -1] * h + [c])
            assert gw_equal(res.gw_class, expect)


def units_diag(values):
    from ekl.gw import classify_diagonal

    return classify_diagonal([Fraction(v) for v in values], QQ)


def test_functional_choice_independence():
    # inhomogeneous maps whose socle element spreads over several standard
    # monomials; every dual-coordinate functional must give the same class
    fixed = [
        M(XY, "-1*x^2*y - x^2 + x + 2*y", "x^3"),
        M(XY, "-1*x^2*y - x^2 - 2*y", "-2*x*y^3"),
        M(XY, "x^2*y^2 - x^2 - 2*y^2", "-1*x^3*y"),
    ]
    checked = 0
    for f in fixed:
        _, qp = prepare_quotient(f)
        socle = socle_element(f, qp)
        nonzero = [
            m for m, c in zip(qp.standard_monomials, socle) if c
        ]
        assert len(nonzero) >= 2
        checked += 1
        classes = [
            ekl_degree(f, functional_monomial=m).gw_class for m in nonzero
        ]
        for c in classes[1:]:
            assert gw_equal(classes[0], c)
    assert checked == 3


def test_linear_maps_det_class():
    rng = random.Random(63)
    tested = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        ring = tuple("xyz"[:n])
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = _int_det(mat)
        if det == 0:
            continue
        tested += 1
        res = ekl_degree(linear_map(mat, ring))
        assert gw_equal(res.gw_class, unit_class(Fraction(det), QQ))
    assert tested >= 20


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def test_composition_multiplicativity():
    rng = random.Random(65)
    for _ in range(30):
        f = random_origin_map(rng)
        g = random_origin_map(rng)
        h = compose_maps(f, g)
        ch = ekl_degree(h).gw_class
        cf = ekl_degree(f).gw_class
        cg = ekl_degree(g).gw_class
        assert ch.rank == cf.rank * cg.rank
        assert gw_equal(ch, gw_mul(cf, cg))


def test_composition_one_variable():
    rng = random.Random(67)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        c1, c2 = rng.choice([1, 2, -1, -3]), rng.choice([1, 2, -1, -3])
        f = M(("x",), f"{c1}*x^{a}")
        g = M(("x",), f"{c2}*x^{b}")
        h = compose_maps(f, g)
        assert gw_equal(
            ekl_degree(h).gw_class,
            gw_mul(ekl_degree(f).gw_class, ekl_degree(g).gw_class),
        )


def test_unipotent_invariance():
    rng = random.Random(69)
    for _ in range(20):
        f = random_origin_map(rng)
        g = random_origin_map(rng)
        u = linear_map(random_unipotent(rng, 2), XY)
        plain = ekl_degree(compose_maps(f, g)).gw_class
        twisted = ekl_degree(compose_maps(f, compose_maps(u, g))).gw_class
        assert gw_equal(plain, twisted)


def test_compose_examples():
    f = M(("x",), "x^2")
    g = M(("x",), "x^3")
    assert compose_maps(f, g).component_texts() == ["x^6"]
    ident = M(XY, "x", "y")
    g2 = M(XY, "x + y", "x*y")
    assert compose_maps(ident, g2) == g2
    f3 = M(XY, "x + y", "x*y")
    g3 = M(XY, "x", "-1*y")
    assert compose_maps(f3, g3).component_texts() == ["x - y", "-1*x*y"]


def test_compose_mismatch():
    with pytest.raises(ValueError):
        compose_maps(M(("x",), "x"), M(XY, "x", "y"))


def test_prime_field_pipeline_skips_relation_when_char_divides_dim():
    # x^3 over F_3: dimension 3 is divisible by the characteristic
    f = M(("x",), "x^3", field=GF(3))
    res = ekl_degree(f)
    assert res.gw_class.rank == 3


def test_prime_field_relation_enforced_otherwise():
    f = M(XY, "x + y", "x*y", field=GF(5))
    res = ekl_degree(f)
    assert res.gw_class.rank == 2


def test_socle_survives_over_varying_primes():
    # the socle element stays nonzero and the form stays full rank when the
    # coefficient field runs over small odd primes, characteristic dividing
    # the dimension included
    from ekl.quotmap import build_typeA_partial

    for p in (3, 5, 7, 11):
        spec = build_typeA_partial([2, 2], GF(p))
        res = ekl_degree(spec.map)
        assert res.dimension == 6
        assert res.gw_class.rank == 6
        assert not res.socle.is_zero()
