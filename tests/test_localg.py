import random
from fractions import Fraction

import pytest

from conftest import poly
from poly_oracle import Poly

from ekl.localg import (
    InfiniteQuotientError,
    UnitIdealError,
    coordinates,
    groebner,
    normal_form,
    origin_supported,
    quotient_presentation,
)
from ekl.poly import DEGREVLEX, LEX, parse_poly
from ekl.quotmap import (
    build_D_full,
    build_Sn_full,
    build_typeA_partial,
    build_typeBC_full,
)
from ekl.scalar import GF, QQ

XY = ("x", "y")


def P(text, ring=XY, field=QQ):
    return poly(text, ring, field)


def basis(*texts, ring=XY, field=QQ, order=None):
    return groebner([parse_poly(t, ring, field) for t in texts], ring, field, order)


def test_groebner_hand_example_lex():
    # S-polynomial of (x+y, xy) under lex reduces to y^2
    gb = basis("x + y", "x*y", order=LEX)
    assert [str(g) for g in gb.generators] == ["x + y", "y^2"]


def test_groebner_already_reduced():
    gb = basis("x", "y")
    assert [str(g) for g in gb.generators] == ["x", "y"]


def test_groebner_containment():
    gb = basis("x^2", "x^3")
    assert [str(g) for g in gb.generators] == ["x^2"]


def test_groebner_monic_and_interreduced():
    gb = basis("2*x + 2*y", "3*x*y")
    for g in gb.generators:
        assert g.terms[g.leading_monomial(gb.order)] == Fraction(1)
        lm = g.leading_monomial(gb.order)
        for h in gb.generators:
            if h is not g:
                hm = h.leading_monomial(gb.order)
                assert not all(a <= b for a, b in zip(hm, lm))


def test_groebner_unit_ideal_reported():
    with pytest.raises(UnitIdealError):
        basis("x", "x + 1")
    with pytest.raises(UnitIdealError):
        basis("1")


def test_groebner_spolys_reduce_to_zero():
    gb = basis("x^2 + y", "x*y + x", "y^3 - y")
    from groebner_oracle import mono_div, mono_lcm

    polys = list(gb.generators)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            f, g = polys[i], polys[j]
            lf, lg = f.leading_monomial(gb.order), g.leading_monomial(gb.order)
            lcm = mono_lcm(lf, lg)
            shift_f = Poly(gb.ring, gb.field, {mono_div(lcm, lf): gb.field.one})
            shift_g = Poly(gb.ring, gb.field, {mono_div(lcm, lg): gb.field.one})
            s = shift_f * f - shift_g * g
            assert normal_form(s, gb).is_zero()


def test_normal_form_examples():
    gb = basis("x + y", "x*y", order=LEX)
    assert str(normal_form(P("x"), gb)) == "-1*y"
    assert normal_form(P("y^2"), gb).is_zero()
    assert str(normal_form(P("1"), gb)) == "1"


def test_normal_form_idempotent_and_sound():
    rng = random.Random(17)
    texts = ("x^2 - y", "y^2 - 1")
    gb = basis(*texts)
    for t in texts:
        assert normal_form(P(t), gb).is_zero()
    for _ in range(40):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-5, 5) or 1)
            for _ in range(4)
        }
        p = Poly(XY, QQ, terms)
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf


def test_normal_form_is_linear():
    gb = basis("x^2 + y", "y^2")
    rng = random.Random(19)
    for _ in range(20):
        p = Poly(XY, QQ, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(1, 5))})
        q = Poly(XY, QQ, {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(1, 5))})
        assert normal_form(p + q, gb) == Poly.of(normal_form(p, gb)) + normal_form(q, gb)


def test_quotient_presentation_examples():
    gb = basis("x + y", "y^2", order=LEX)
    qp = quotient_presentation(gb)
    assert qp.standard_monomials == ((0, 0), (0, 1))
    assert qp.dimension == 2

    qp2 = quotient_presentation(basis("x", "y"))
    assert qp2.standard_monomials == ((0, 0),)
    assert qp2.dimension == 1

    qp4 = quotient_presentation(basis("x^2", "y^2"))
    assert qp4.dimension == 4
    assert set(qp4.standard_monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert qp4.standard_monomials[0] == (0, 0)


def test_quotient_infinite_dimension_names_variable():
    with pytest.raises(InfiniteQuotientError) as info:
        quotient_presentation(basis("x"))
    assert info.value.variable == "y"


def test_origin_supported_examples():
    qp = quotient_presentation(basis("x + y", "x*y"))
    assert origin_supported(qp)

    qp2 = quotient_presentation(basis("x*(x - 1)", "y"))
    assert not origin_supported(qp2)

    qp3 = quotient_presentation(basis("x", "y"))
    assert origin_supported(qp3)


def test_coordinates_roundtrip():
    gb = basis("x^2", "y^2")
    qp = quotient_presentation(gb)
    el = coordinates(P("3*x*y + 2*x + 1 + x^2"), qp)
    assert el.to_polynomial() == P("3*x*y + 2*x + 1")


def test_dimension_order_independent_on_quotient_maps():
    specs = [
        build_Sn_full(2),
        build_Sn_full(3),
        build_typeA_partial([1, 1]),
        build_typeA_partial([2, 1]),
        build_typeA_partial([2, 2]),
        build_typeA_partial([3, 1]),
        build_typeBC_full(1),
        build_typeBC_full(2),
        build_D_full(2),
    ]
    for spec in specs:
        f = spec.map
        d1 = quotient_presentation(groebner(f.components, f.ring, f.field, DEGREVLEX)).dimension
        d2 = quotient_presentation(groebner(f.components, f.ring, f.field, LEX)).dimension
        assert d1 == d2 == spec.expected_degree


def test_typeA_rank_claim():
    import math

    for blocks in ([2, 2], [2, 1], [3, 1], [2, 2, 1]):
        spec = build_typeA_partial(blocks)
        qp = quotient_presentation(groebner(spec.map.components, spec.map.ring, QQ))
        n = sum(blocks)
        expect = math.factorial(n)
        for b in blocks:
            expect //= math.factorial(b)
        assert qp.dimension == expect


def test_groebner_deterministic():
    texts = ("x^2 + y", "x*y + x", "y^3 - y")
    a = basis(*texts)
    b = basis(*reversed(texts))
    assert [str(g) for g in a.generators] == [str(g) for g in b.generators]


def test_groebner_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    cases = [
        (("x", "y"), ["x + y", "x*y"]),
        (("x", "y"), ["x^2 + y", "x*y + x", "y^3 - y"]),
        (("x", "y", "z"), ["x + y + z", "x*y + x*z + y*z", "x*y*z"]),
        (("x", "y", "z"), ["x^2 - y*z", "y^2 - 2*x*z", "z^3 - x*y"]),
    ]
    for ring, texts in cases:
        ours = basis(*texts, ring=ring)
        symbols = sympy.symbols(" ".join(ring))
        theirs = sympy.groebner(
            [sympy.sympify(t.replace("^", "**")) for t in texts],
            *symbols,
            order="grevlex",
        )
        expected = {
            sympy.Poly(e, *symbols, domain="QQ") for e in theirs.exprs
        }
        got = {
            sympy.Poly(sympy.sympify(str(g).replace("^", "**")), *symbols, domain="QQ")
            for g in ours.generators
        }
        assert got == expected


def test_groebner_over_prime_field_matches_rational_reduction():
    f5 = GF(5)
    gb5 = basis("x + y", "x*y", ring=XY, field=f5)
    gbq = basis("x + y", "x*y")
    assert len(gb5.generators) == len(gbq.generators)
    for g5, gq in zip(gb5.generators, gbq.generators):
        assert g5.leading_monomial(gb5.order) == gq.leading_monomial(gbq.order)
        for mono, c in gq.terms.items():
            expected = f5.from_int(c.numerator) / f5.from_int(c.denominator)
            assert g5.terms.get(mono, f5.zero) == expected
