"""Buchberger's criterion on returned bases, independent of the pair queue.

A basis G of an ideal I is a Groebner basis iff every S-polynomial of two
elements of G reduces to zero by G.  The checks below test that, that G
still spans I (each input generator reduces to zero) and that G does not
depend on the order of the input generators.  A pair that the queue drops
shows up here as a nonzero remainder, and a basis that depends on the
order in which pairs or generators come shows up as a different one, not
only as a changed pinned string.
"""

import random

import pytest

from conftest import WEIGHTED, components, in_ring, kernel, poly, random_origin_map

from ekl.localg import groebner, normal_form
from ekl.poly import DEGREVLEX, LEX, Polynomial, mono_mul, parse_poly
from ekl.scalar import GF, QQ
from groebner_oracle import mono_div, mono_lcm
from poly_oracle import Poly

FIELDS = {"q": QQ, "fp32003": GF(32003), "fp7": GF(7)}
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX, "weighted": WEIGHTED}
# ring -> largest exponent in a generator, small enough that LEX stays quick
RINGS = {("x", "y"): 2, ("x", "y", "z"): 1}


def random_generator(rng: random.Random, ring, fld) -> Poly:
    """A few terms without a constant one, so the ideal never contains 1."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        mono = (0,) * len(ring)
        while not any(mono):
            mono = tuple(rng.randint(0, RINGS[ring]) for _ in ring)
        c = fld.from_int(rng.choice([-1, 1]) * rng.randint(1, 9))
        terms[mono] = c / fld.from_int(rng.randint(1, 4))
    return Poly(ring, fld, terms)


def shifted(p: Polynomial, mono) -> Poly:
    return Poly(p.ring, p.field, {mono_mul(mono, m): c for m, c in p.terms.items()})


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """S(f, g) for monic f and g."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    return shifted(f, mono_div(lcm, lf)) - shifted(g, mono_div(lcm, lg))


def random_ideals(rng: random.Random, ring, fld):
    """Random generators, then maps with only the origin as zero (larger bases)."""
    for _ in range(4):
        gens = [random_generator(rng, ring, fld) for _ in ring]
        yield [g for g in gens if not g.is_zero()]
    for _ in range(4):
        f = random_origin_map(rng, ring, max_exp=3)
        yield [poly(str(g), ring, fld) for g in components(f)]


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("ring", sorted(RINGS), ids="".join)
def test_buchberger_criterion_on_random_ideals(ring, fname, oname):
    fld, order = FIELDS[fname], in_ring(ORDERS[oname], ring)
    rng = random.Random(f"{''.join(ring)}-{fname}-{oname}")
    for gens in random_ideals(rng, ring, fld):
        gb = groebner(list(map(kernel, gens)), ring, fld, order)
        basis = gb.generators
        assert all(g.terms[g.leading_monomial(order)] == fld.one for g in basis)
        for i, f in enumerate(basis):
            for g in basis[i + 1 :]:
                assert normal_form(s_polynomial(f, g, order), gb).is_zero()
        for g in gens:
            assert normal_form(g, gb).is_zero()
        for _ in range(3):
            rng.shuffle(gens)
            assert repr(groebner(list(map(kernel, gens)), ring, fld, order)) == repr(gb)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_zero_ideal_has_the_empty_basis(fname):
    fld = FIELDS[fname]
    ring = ("x", "y")
    gb = groebner([{}, parse_poly("7*x - 7*x", ring, fld)], ring, fld)
    assert gb.generators == ()
    p = poly("3*x^2*y - 1/2*y + 5", ring, fld)
    assert normal_form(p, gb) == p


def test_empty_generator_list_is_refused():
    with pytest.raises(ValueError, match="empty generator list"):
        groebner([], ("x",), QQ)
