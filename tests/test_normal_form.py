"""The monic reducer against a field-arithmetic reference.

``reference_normal_form`` reduces with the monic field generators of the
basis, one term at a time in field arithmetic (``Fraction`` over Q,
``PrimeFieldElement`` over F_p).  The library reduces by the same monic
generators on plain values instead: ints where integral and Fractions
otherwise over Q, residues modulo p over F_p.  Both must give the same
polynomial.
"""

import random
from fractions import Fraction

import pytest

from ekl.localg import groebner, normal_form
from ekl.poly import DEGREVLEX, LEX, Polynomial, mono_mul, parse_poly
from ekl.quotmap import build_typeA_partial
from ekl.scalar import GF, QQ
from groebner_oracle import mono_div, mono_divides

F = GF(32003)

# Generators with leading coefficients other than 1, whose monic bases over Q
# have non-integral coefficients (x^2 - 3/2*y for 2*x^2 - 3*y, and so on), so
# the reducer computes on Fractions as well as ints.
IDEALS = {
    "xy1": (("x", "y"), ("2*x^2 - 3*y", "3*y^2 + 5*x")),
    "xy2": (("x", "y"), ("3*x^2 + 2*x*y - 7/2*y", "5*y^3 - x")),
    "xyz": (("x", "y", "z"), ("2*x^2 + 3*y*z", "5*y^2 - 2*x*z + z", "7*z^3 - 3*x")),
}

# The reduced bases as the earlier Fraction-based reducers printed them.
PINNED_BASES = {
    ("xy1", "q", "degrevlex"): "<groebner [x^2 - 3/2*y, y^2 + 5/3*x]>",
    ("xy1", "q", "lex"): "<groebner [3/5*y^2 + x, y^4 - 25/6*y]>",
    ("xy1", "fp", "degrevlex"): "<groebner [x^2 + 16000*y, y^2 + 21337*x]>",
    ("xy1", "fp", "lex"): "<groebner [25603*y^2 + x, y^4 + 26665*y]>",
    ("xy2", "q", "degrevlex"): "<groebner [y^3 - 1/5*x, x^2 + 2/3*x*y - 7/6*y]>",
    ("xy2", "q", "lex"): "<groebner [-5*y^3 + x, y^6 + 2/15*y^4 - 7/150*y]>",
    ("xy2", "fp", "degrevlex"): "<groebner [y^3 + 12801*x, x^2 + 21336*x*y + 26668*y]>",
    ("xy2", "fp", "lex"): "<groebner [31998*y^3 + x, y^6 + 23469*y^4 + 25389*y]>",
    ("xyz", "q", "degrevlex"): "<groebner [z^3 - 3/7*x, x^2 + 3/2*y*z, y^2 - 2/5*x*z + 1/5*z]>",
    ("xyz", "q", "lex"): (
        "<groebner [-7/3*z^3 + x, -14/15*z^4 + y^2 + 1/5*z, 98/27*z^6 + y*z, "
        "z^11 - 243/3430*z^5 + 729/48020*z^2]>"
    ),
    ("xyz", "fp", "degrevlex"): (
        "<groebner [z^3 + 18287*x, x^2 + 16003*y*z, y^2 + 25602*x*z + 19202*z]>"
    ),
    ("xyz", "fp", "lex"): (
        "<groebner [21333*z^3 + x, 27735*z^4 + y^2 + 19202*z, 9486*z^6 + y*z, "
        "z^11 + 7007*z^5 + 14500*z^2]>"
    ),
}

FIELDS = {"q": QQ, "fp": F}
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX}


def reference_normal_form(p: Polynomial, gb) -> Polynomial:
    """Remainder of p by the monic generators in field arithmetic."""
    key = gb.order.key
    entries = [(g.leading_monomial(gb.order), g.terms) for g in gb.generators]
    zero = p.field.zero
    work = dict(p.terms)
    out: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = next(((lm, terms) for lm, terms in entries if mono_divides(lm, m)), None)
        if hit is None:
            out[m] = c
            continue
        lm, terms = hit
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


def random_poly(rng: random.Random, ring, fld, terms: int = 6, max_exp: int = 6) -> Polynomial:
    """Rational coefficients with denominators and either sign, mapped into ``fld``."""
    coeffs = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) for _ in ring)
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
        coeffs[mono] = fld.from_int(c.numerator) / fld.from_int(c.denominator)
    return Polynomial(ring, fld, coeffs)


def basis(name: str, fname: str, oname: str):
    ring, texts = IDEALS[name]
    fld = FIELDS[fname]
    return groebner([parse_poly(t, ring, fld) for t in texts], ring, fld, ORDERS[oname])


@pytest.mark.parametrize("name,fname,oname", sorted(PINNED_BASES))
def test_groebner_generators_pinned(name, fname, oname):
    assert repr(basis(name, fname, oname)) == PINNED_BASES[(name, fname, oname)]


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_normal_form_matches_reference(name, fname, oname):
    gb = basis(name, fname, oname)
    if fname == "q":
        assert any(c.denominator != 1 for g in gb.generators for c in g.terms.values())
    rng = random.Random(f"{name}-{fname}-{oname}")
    for _ in range(25):
        p = random_poly(rng, gb.ring, gb.field)
        nf = normal_form(p, gb)
        assert nf == reference_normal_form(p, gb)
        assert all(type(c) is type(gb.field.one) for c in nf.terms.values())


@pytest.mark.parametrize("fld", [QQ, F], ids=["q", "fp"])
def test_normal_form_matches_reference_on_family(fld):
    f = build_typeA_partial([2, 2], fld).map
    gb = groebner(f.components, f.ring, fld)
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(rng, gb.ring, fld, terms=8, max_exp=4)
        assert normal_form(p, gb) == reference_normal_form(p, gb)
