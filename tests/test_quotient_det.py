"""Determinants inside the quotient algebra against Bareiss over K[x].

``ekl.localg.poly_det`` expands a polynomial matrix in minors whose values
are coordinate vectors of Q = K[x]/I, acting with the entries through the
multiplication matrices.  ``reference_poly_det`` (conftest) takes the
determinant in K[x]; its coordinates in Q must be the same.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    WEIGHTED,
    components,
    in_quotient,
    in_ring,
    kernel_matrix,
    poly,
    polynomial_matrix,
    reference_poly_det,
)
from poly_oracle import Poly, partial_derivative

from ekl.degree import jacobian_element, linear_decompose, socle_element
from ekl.localg import coordinates, groebner, poly_det, quotient_presentation
from ekl.poly import DEGREVLEX, LEX, parse_poly
from ekl.quotmap import (
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_typeA_partial,
    build_typeBC_full,
)
from ekl.scalar import GF, QQ

F = GF(32003)
FIELDS = {"q": QQ, "fp": F}
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX, "weighted": WEIGHTED}

# A local ideal (many products vanish), one with zeros away from the origin
# and non-monic integer entries, and a three-variable one.
IDEALS = {
    "local": (("x", "y"), ("x^3 + y^2", "x*y")),
    "xy": (("x", "y"), ("2*x^2 - 3*y", "3*y^2 + 5*x")),
    "xyz": (("x", "y", "z"), ("2*x^2 + 3*y*z", "5*y^2 - 2*x*z + z", "7*z^3 - 3*x")),
}


def presentation(name, fld, order):
    ring, texts = IDEALS[name]
    order = in_ring(order, ring)
    return quotient_presentation(groebner([parse_poly(t, ring, fld) for t in texts], ring, fld, order))


def random_entry(rng, qp):
    """Zero one time in five, else up to three terms with exponents <= 2
    and, three times in four, a constant term: in a local quotient every
    other monomial is nilpotent, and without units most determinants
    vanish."""
    if rng.random() < 0.2:
        return Poly.zero(qp.ring, qp.field)
    terms = {}
    if rng.random() < 0.75:
        terms[(0,) * len(qp.ring)] = qp.field.from_int(rng.choice([-3, -2, -1, 1, 2, 5]))
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in qp.ring)
        terms[mono] = qp.field.from_int(rng.choice([-3, -2, -1, 1, 2, 5]))
    return Poly(qp.ring, qp.field, terms)


def random_matrix(rng, qp, n):
    """A random n x n matrix; sometimes with a zero row, two proportional
    rows, or a row multiplied by a generator of the ideal (the determinant
    then lies in the ideal and vanishes in Q)."""
    m = [[random_entry(rng, qp) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(6)
    k = rng.randrange(n)
    if kind == 0:
        m[k] = [Poly.zero(qp.ring, qp.field)] * n
    elif kind == 1 and n > 1:
        other = (k + 1) % n
        scale = random_entry(rng, qp)
        m[k] = [scale * a for a in m[other]]
    elif kind == 2:
        g = rng.choice(qp.basis.generators)
        m[k] = [a * g for a in m[k]]
    return m


def assert_matches_reference(matrix, qp):
    """poly_det's kernel coordinates: those of the reference, as residues in
    [0, p) over F_p and as ints and Fractions over Q."""
    det = poly_det(kernel_matrix(matrix, qp), qp)
    assert tuple(map(qp.field.from_int, det)) == coordinates(reference_poly_det(matrix), qp).coordinates
    p = qp.field.characteristic
    assert all(type(c) is int and 0 <= c < p if p else type(c) in (int, Fraction) for c in det)
    return det


@pytest.mark.parametrize("oname", sorted(ORDERS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_poly_det_matches_reference(name, fname, oname):
    qp = presentation(name, FIELDS[fname], ORDERS[oname])
    # the weighted order draws the matrices of degrevlex: only Q's basis differs
    rng = random.Random(f"{name}-{fname}-{ORDERS[oname].kind}")
    nonzero = vanish_in_q = 0
    for _ in range(40):
        matrix = random_matrix(rng, qp, rng.randint(1, 4))
        det = assert_matches_reference(matrix, qp)
        nonzero += any(det)
        vanish_in_q += not any(det) and not reference_poly_det(matrix).is_zero()
    assert nonzero >= 10 and vanish_in_q > 0


def test_poly_det_signs_and_vanishing():
    qp = presentation("local", QQ, DEGREVLEX)

    def P(text):
        return poly(text, qp.ring)

    def det(matrix):
        return in_quotient(poly_det(kernel_matrix(matrix, qp), qp), qp)

    assert str(det([[P("x"), P("1")], [P("y"), P("0")]])) == "-1*y"
    cycle = [[P("0"), P("1"), P("0")], [P("0"), P("0"), P("1")], [P("x"), P("0"), P("0")]]
    assert str(det(cycle)) == "x"
    assert str(det([[P("1"), P("0")], [P("0"), P("y")]])) == "y"
    # x*y lies in the ideal: a nonzero polynomial determinant that is 0 in Q
    assert det([[P("x"), P("0")], [P("0"), P("y")]]).is_zero()


FAMILIES = {
    "Sn3": lambda fld: build_Sn_full(3, fld),
    "Sn4": lambda fld: build_Sn_full(4, fld),
    "A22": lambda fld: build_typeA_partial([2, 2], fld),
    "A32": lambda fld: build_typeA_partial([3, 2], fld),
    "B2": lambda fld: build_typeBC_full(2, fld),
    "Dodd2": lambda fld: build_D_odd_partial(2, fld),
    "Dfull3": lambda fld: build_D_full(3, fld),
}


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_socle_and_jacobian_match_reference(family, fname):
    f = FAMILIES[family](FIELDS[fname]).map
    qp = quotient_presentation(groebner(f.components, f.ring, f.field))
    socle = assert_matches_reference(polynomial_matrix(linear_decompose(f), f), qp)
    jacobian = [[partial_derivative(c, v) for v in f.ring] for c in components(f)]
    jac = assert_matches_reference(jacobian, qp)
    assert socle == socle_element(f, qp)
    assert jac == jacobian_element(f, qp)


def test_poly_det_rejects_bad_matrices():
    qp = presentation("local", QQ, DEGREVLEX)
    one = Poly.constant(1, qp.ring, QQ)
    with pytest.raises(ValueError):
        poly_det(kernel_matrix([], qp), qp)
    with pytest.raises(ValueError):
        poly_det(kernel_matrix([[one, one], [one]], qp), qp)
    with pytest.raises(ValueError):  # dicts carry no field: refused at the conversion
        poly_det(kernel_matrix([[Poly.constant(1, qp.ring, F)]], qp), qp)
