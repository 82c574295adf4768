"""Shared builders for randomized map tests, the determinant oracle and the
Polynomial helpers.

A ``MapSpec`` holds ``{monomial: kernel value}`` dicts, and ``parse_poly``
returns one.  Tests that want a Polynomial go through ``polynomial``, which
wraps such a dict in ``from_kernel`` as a ``poly_oracle.Poly``: ``poly``
parses text, ``components`` reads a map and ``in_quotient`` reads the
coordinates of a determinant.  ``kernel`` goes back, and
``map_spec`` makes a MapSpec from Polynomials over one ring and one field.

The degree pipeline only accepts maps whose whole zero set is the origin,
so random instances are built from families where that is guaranteed:
diagonal monomial maps composed with invertible (unipotent) linear maps.

``reference_poly_det`` is the fraction-free Bareiss determinant over
K[x]; the library takes determinants inside the quotient algebra
(``ekl.localg.poly_det``), and the tests compare the two.  That one takes
``{monomial: kernel value}`` dicts, as ``ekl.degree.linear_decompose``
returns them: ``kernel_matrix`` and ``polynomial_matrix`` convert between
them and Polynomials.  ``compose_maps`` expands f o g; no library code
composes maps.
"""

from __future__ import annotations

import random

from ekl.degree import MapSpec
from ekl.poly import DEGREVLEX, Polynomial, _kernel_values, from_kernel, mono_mul, parse_poly
from ekl.scalar import QQ
from groebner_oracle import mono_div, mono_divides
from poly_oracle import Poly, substitute


def polynomial(ring, field, terms: dict) -> Poly:
    """The Polynomial of a ``{monomial: kernel value}`` dict."""
    return Poly.of(from_kernel(ring, field, terms))


def poly(text: str, ring, field=QQ) -> Poly:
    """The Polynomial that ``text`` parses to."""
    return polynomial(ring, field, parse_poly(text, ring, field))


def components(f: MapSpec) -> list[Poly]:
    """The components of a map as Polynomials."""
    return [polynomial(f.ring, f.field, c) for c in f.components]


def in_quotient(coordinates, qp) -> Poly:
    """The Polynomial whose coefficients on the standard monomials of qp are
    the kernel values ``coordinates``."""
    return polynomial(qp.ring, qp.field, dict(zip(qp.standard_monomials, coordinates)))


def kernel(f: Polynomial) -> dict:
    """The ``{monomial: kernel value}`` dict of a Polynomial."""
    return _kernel_values(f.terms, f.field.characteristic)


def map_spec(polys) -> MapSpec:
    """The MapSpec whose components are the given Polynomials, which must
    share one ring and one field."""
    ring, field = polys[0].ring, polys[0].field
    if any(f.ring != ring for f in polys):
        raise ValueError("components from different rings")
    if any(f.field != field for f in polys):
        raise ValueError("components over different fields")
    return MapSpec(ring, field, tuple(map(kernel, polys)))


def compose_maps(f: MapSpec, g: MapSpec) -> MapSpec:
    """The composite map f o g, expanded in g's coordinates."""
    if len(f.ring) != len(g.ring):
        raise ValueError("maps have different numbers of variables")
    assignment = dict(zip(f.ring, components(g)))
    return map_spec([substitute(c, assignment, ring=g.ring) for c in components(f)])


def kernel_matrix(matrix, qp):
    """A matrix of Polynomials over qp's ring and field as the
    ``{monomial: kernel value}`` dicts that ``ekl.localg.poly_det`` takes."""
    for row in matrix:
        for entry in row:
            if entry.ring != qp.ring or entry.field != qp.field:
                raise ValueError("matrix entries do not match the quotient ring")
    return [[kernel(entry) for entry in row] for row in matrix]


def polynomial_matrix(rows, f: MapSpec):
    """Rows of ``{monomial: kernel value}`` dicts, as ``ekl.degree.linear_decompose``
    returns them for f, as Polynomials over f's ring and field."""
    return [[polynomial(f.ring, f.field, entry) for entry in row] for row in rows]


def linear_map(matrix, ring=("x", "y"), field=QQ) -> MapSpec:
    """MapSpec sending x to A x for an integer matrix A."""
    ring = tuple(ring)
    n = len(ring)
    comps = []
    for i in range(n):
        terms = {}
        for j in range(n):
            if matrix[i][j]:
                mono = tuple(1 if k == j else 0 for k in range(n))
                terms[mono] = field.from_int(matrix[i][j])
        comps.append(Poly(ring, field, terms))
    return map_spec(comps)


def random_unipotent(rng: random.Random, n: int = 2, span: int = 2):
    """A random upper or lower triangular unipotent integer matrix."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    upper = rng.random() < 0.5
    for i in range(n):
        for j in range(n):
            if (i < j if upper else i > j):
                m[i][j] = rng.randint(-span, span)
    return m


def monomial_map(rng: random.Random, ring=("x", "y"), max_exp: int = 2, field=QQ) -> MapSpec:
    """(c_1 x^a, c_2 y^b) with nonzero integer coefficients."""
    ring = tuple(ring)
    n = len(ring)
    comps = []
    for i in range(n):
        e = rng.randint(1, max_exp)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        mono = tuple(e if k == i else 0 for k in range(n))
        comps.append(Poly(ring, field, {mono: field.from_int(c)}))
    return map_spec(comps)


def random_origin_map(rng: random.Random, ring=("x", "y"), max_exp: int = 2) -> MapSpec:
    """A map with zero set exactly the origin: unipotent o monomial o unipotent."""
    core = monomial_map(rng, ring, max_exp)
    pre = linear_map(random_unipotent(rng, len(ring)), ring)
    post = linear_map(random_unipotent(rng, len(ring)), ring)
    return compose_maps(post, compose_maps(core, pre))


def reference_poly_det(matrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    first = matrix[0][0]
    ring, field = first.ring, first.field
    for row in matrix:
        for entry in row:
            if entry.ring != ring or entry.field != field:
                raise ValueError("matrix entries from different rings")
    m = [[Poly.of(entry) for entry in row] for row in matrix]
    sign = 1
    prev = Poly.constant(1, ring, field)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(ring, field)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(num, prev)
            m[i][k] = Poly.zero(ring, field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """Divide num by den, which must divide exactly (Bareiss guarantees it)."""
    if all(not any(m) for m in den.terms):
        c = den.constant_term()
        if not c:
            raise ZeroDivisionError("division by zero polynomial")
        inv = num.field.one / c
        return Poly(num.ring, num.field, {m: coeff * inv for m, coeff in num.terms.items()})
    order = DEGREVLEX
    lm = den.leading_monomial(order)
    lc = den.terms[lm]
    rem = dict(num.terms)
    out = {}
    while rem:
        m = order.max(rem)
        c = rem[m]
        if not mono_divides(lm, m):
            raise ArithmeticError("inexact polynomial division")
        q_mono = mono_div(m, lm)
        q_coeff = c / lc
        out[q_mono] = q_coeff
        for dm, dc in den.terms.items():
            t = mono_mul(q_mono, dm)
            new = rem.get(t, num.field.zero) - q_coeff * dc
            if new:
                rem[t] = new
            elif t in rem:
                del rem[t]
    return Poly(num.ring, num.field, out)
