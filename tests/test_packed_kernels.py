"""The packed-monomial kernels of ``ekl.localg`` against the tuple oracle.

``groebner_oracle`` keeps the kernels on exponent tuples.  For every ideal
below both must print the same reduced basis, find the same standard
monomials and build the same multiplication matrices, or raise the same
error.  The packed basis that ``groebner`` hands to the presentation
(``GroebnerBasis.packed``) must unpack to the published generators.  The
carry tests use exponents past the first field width (127 for 8-bit
fields): the library must rerun at a wider field and still return the
oracle's basis.
"""

import random
from fractions import Fraction

import pytest

import ekl.localg as localg
import groebner_oracle as oracle
from conftest import components, kernel, poly, random_origin_map
from ekl.degree import strip_solved
from ekl.localg import (
    InfiniteQuotientError,
    UnitIdealError,
    groebner,
    normal_form,
    quotient_presentation,
)
from ekl.poly import DEGREVLEX, LEX, Polynomial, parse_poly
from ekl.scalar import GF, QQ
from test_graded import LADDER, family_spec

FIELDS = {"q": QQ, "fp7": GF(7), "fp32003": GF(32003)}
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX}


def assert_same_as_oracle(gens, ring, fld, order, presentation=True):
    try:
        expected = oracle.groebner(gens, ring, fld, order)
    except UnitIdealError:
        with pytest.raises(UnitIdealError):
            groebner(gens, ring, fld, order)
        return
    gb = groebner(gens, ring, fld, order)
    assert repr(gb) == repr(expected)
    assert gb == expected
    assert_packed_is_the_basis(gb)
    if not presentation:
        return
    try:
        std = oracle.standard_monomials(expected)
    except InfiniteQuotientError as e:
        with pytest.raises(InfiniteQuotientError) as raised:
            quotient_presentation(gb)
        assert raised.value.variable == e.variable
        return
    qp = quotient_presentation(gb)
    assert qp.standard_monomials == std
    assert qp.matrices == oracle.multiplication_matrices(expected, std)


def assert_packed_is_the_basis(gb):
    """``gb.packed`` holds the generators in order, keyed by leading monomial,
    as kernel values: ints where integral over Q, residues in [1, p) over F_p."""
    pk, lead = gb.packed
    fld, p = gb.field, gb.field.characteristic
    assert [pk.unpack(lm) for lm in lead] == list(gb.leading_monomials())
    for (lm, d), g in zip(lead.items(), gb.generators):
        assert max(d) == lm
        assert {pk.unpack(m): fld.from_int(c) for m, c in d.items()} == g.terms
        if p:
            assert all(type(c) is int and 0 < c < p for c in d.values())
        else:
            assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in d.values())


def random_generators(rng: random.Random, ring, fld, max_exp: int):
    """Two to four terms each; a constant term now and then, so that some
    ideals are the unit ideal and some are not zero-dimensional."""
    gens = []
    for _ in ring:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple(rng.randint(0, max_exp) for _ in ring)
            c = fld.from_int(rng.choice([-1, 1]) * rng.randint(1, 9))
            terms[mono] = c / fld.from_int(rng.randint(1, 4))
        gens.append(kernel(Polynomial(ring, fld, terms)))
    return gens


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_packed_kernels_match_the_oracle_on_seeded_ideals(fname, oname):
    fld, order = FIELDS[fname], ORDERS[oname]
    rng = random.Random(f"packed-{fname}-{oname}")
    for ring, max_exp in ((("x", "y"), 4), (("x", "y", "z"), 1)):
        for _ in range(12):
            assert_same_as_oracle(random_generators(rng, ring, fld, max_exp), ring, fld, order)
        for _ in range(8):
            f = random_origin_map(rng, ring, max_exp=3)
            gens = [parse_poly(str(g), ring, fld) for g in components(f)]
            assert_same_as_oracle(gens, ring, fld, order)


def test_normalize_divides_ints_by_an_int_leading_coefficient():
    reducer = localg._MonicReducer(localg._Packing(DEGREVLEX, 2, 8), 0)
    for d in ({5: -1, 3: 4, 1: -6}, {5: 3, 3: 6, 1: -9}, {5: -2, 3: 4, 1: 3}, {5: 2, 3: Fraction(1, 3)}):
        monic = reducer.normalize(d)
        lc = Fraction(d[5])
        expected = {m: c / lc for m, c in d.items()}
        assert monic == expected
        # ints where integral, Fractions otherwise, as the basis stores them
        assert [type(c) for c in monic.values()] == [int if c.denominator == 1 else Fraction for c in expected.values()]


@pytest.mark.parametrize("args", LADDER, ids=" ".join)
def test_packed_kernels_match_the_oracle_on_ladder_members(args):
    g = strip_solved(family_spec(args).map)[0]
    assert_same_as_oracle(g.components, g.ring, g.field, DEGREVLEX)


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("field", ["q", "fp:32003"])
def test_the_packed_basis_is_the_basis_on_ladder_members(field, oname):
    for args in LADDER:
        f = family_spec(args, field).map
        gb = groebner(f.components, f.ring, f.field, ORDERS[oname])
        assert_packed_is_the_basis(gb)
        qp = quotient_presentation(gb)
        std = oracle.standard_monomials(gb)
        assert qp.standard_monomials == std
        assert qp.matrices == oracle.multiplication_matrices(gb, std)


# ---------------------------------------------------------------------------
# carries


@pytest.fixture
def widths(monkeypatch):
    """The field width of every packing the library builds, in order."""
    built = []

    class Recording(localg._Packing):
        def __init__(self, order, n, width):
            built.append(width)
            super().__init__(order, n, width)

    monkeypatch.setattr(localg, "_Packing", Recording)
    return built


def polys(ring, *texts, field=QQ):
    return [parse_poly(t, ring, field) for t in texts]


@pytest.mark.parametrize("oname", sorted(ORDERS))
def test_exponents_past_the_first_width_give_the_oracle_basis(widths, oname):
    gens = polys(("x", "y"), "x^40000 - y", "y^2 - x")
    assert_same_as_oracle(gens, ("x", "y"), QQ, ORDERS[oname], presentation=False)
    assert widths[0] == 32  # 40,000 needs more than 16-bit fields


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_lex_reductions_past_the_first_width_rerun_wider(widths, fname):
    # x^50 reduces to y^150 under x -> y^3: past 127, the 8-bit limit
    fld = FIELDS[fname]
    gens = polys(("x", "y"), "x^50 - y", "x - y^3", field=fld)
    assert_same_as_oracle(gens, ("x", "y"), fld, LEX)
    assert widths[:2] == [8, 16]
    gb = groebner(gens, ("x", "y"), fld, LEX)
    assert str(gb.generators[-1]).startswith("y^150 ")
    assert gb.packed[0].width == 16  # the presentation above ran on the widened packing


def test_graded_remainders_past_the_first_width_rerun_wider(widths):
    # no input exponent passes 127, the 8-bit limit, but the basis leads with y^199*z^101
    xyz = ("x", "y", "z")
    gens = polys(xyz, "x^100*y - z^101", "x*y^100 - z^101")
    assert_same_as_oracle(gens, xyz, QQ, DEGREVLEX)
    assert widths[:2] == [8, 16]
    assert str(groebner(gens, xyz, QQ).generators[0]).startswith("y^199*z^101 ")


@pytest.mark.parametrize("fname", ["q", "fp32003"])
def test_the_presentation_reads_the_widened_packing(widths, fname):
    # every input exponent fits 8-bit fields, but Buchberger's run needs 16
    fld = FIELDS[fname]
    gens = polys(("x", "y"), "x^100*y^2 - y^102", "x^101 - y^101", field=fld)
    gb = groebner(gens, ("x", "y"), fld)
    assert widths == [8, 16]
    assert gb.packed[0].width == 16
    assert_packed_is_the_basis(gb)
    with pytest.raises(InfiniteQuotientError, match="'y'"):
        quotient_presentation(gb)
    assert widths == [8, 16]  # the presentation packs nothing itself


def test_normal_form_reruns_wider(widths):
    ring = ("x", "y")
    gb = groebner(polys(ring, "x - y^3"), ring, QQ, LEX)
    assert normal_form(poly("x^100 + x", ring), gb) == poly("y^300 + y^3", ring)
    assert widths[-2:] == [8, 16]
