from functools import reduce
from operator import mul

import pytest

import quotmap_oracle as oracle
from conftest import components, reference_poly_det
from poly_oracle import Poly, elementary_symmetric, partial_derivative, substitute

from ekl.degree import ekl_degree
from ekl.localg import groebner, quotient_presentation
from ekl.poly import parse_poly
from ekl.quotmap import (
    ExpectedShape,
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_quotient,
    build_typeA_partial,
    build_typeBC_full,
    expected_gw,
)
from ekl.scalar import GF, QQ
from ekl.weyl import (
    ParabolicSpec,
    block_parabolic,
    build_root_system,
    compute_aP,
    min_coset_reps,
    parabolic_order_formula,
)


# ---------------------------------------------------------------------------
# test oracle: the source and target invariant generators in ambient
# coordinates, which the builders name in their docstrings but do not build

def ambient_generators(spec):
    """(ambient ring, source generators, target generators) of a quotient map
    over Q, in x1, x2, ...; their total degrees must be the spec's degrees."""
    n = len(spec.target_degrees)
    ring = tuple(f"x{i}" for i in range(1, n + 1))
    xs = [Poly.variable(v, ring, QQ) for v in ring]
    squares = {name: x * x for name, x in zip(ring, xs)}
    e = [elementary_symmetric(k, ring, ring, QQ) for k in range(1, n + 1)]
    e_squares = [substitute(g, squares) for g in e]
    even_sign = e_squares[:-1] + [reduce(mul, xs)]
    target = {
        "A-partial": e,
        "Sn-full": e,
        "BC-full": e_squares,
        "D-full": even_sign,
        "D-odd-partial": even_sign,
    }[spec.family]
    if spec.family == "A-partial":
        source, offset = [], 0
        for b in spec.parameters:
            block = ring[offset : offset + b]
            source += [elementary_symmetric(j, block, ring, QQ) for j in range(1, b + 1)]
            offset += b
    elif spec.family == "D-odd-partial":
        tail = ring[1:]
        source = (
            [xs[0]]
            + [
                substitute(elementary_symmetric(k, tail, ring, QQ), squares)
                for k in range(1, n - 1)
            ]
            + [reduce(mul, xs[1:])]
        )
    else:
        source = xs
    assert tuple(max(map(sum, g.terms), default=0) for g in source) == spec.source_degrees
    assert tuple(max(map(sum, g.terms), default=0) for g in target) == spec.target_degrees
    return ring, source, target


def verify_generators(spec) -> bool:
    """Substituting the source generators into the map components must
    reproduce the target generators in ambient coordinates."""
    ring, source, target = ambient_generators(spec)
    assignment = dict(zip(spec.map.ring, source))
    return len(spec.map.components) == len(target) and all(
        substitute(component, assignment, ring=ring) == t
        for component, t in zip(components(spec.map), target)
    )


# ---------------------------------------------------------------------------
# construction examples

def test_blocks_1_1_is_s2_quotient():
    spec = build_typeA_partial([1, 1])
    assert spec.map.component_texts() == ["y1 + z1", "y1*z1"]
    assert spec.expected_degree == 2


def test_blocks_2_2_components():
    spec = build_typeA_partial([2, 2])
    ring = spec.map.ring
    assert ring == ("y1", "y2", "z1", "z2")
    p = spec.map.component_texts()
    assert parse_poly(p[0], ring) == parse_poly("y1 + z1", ring)
    assert parse_poly(p[1], ring) == parse_poly("y2 + y1*z1 + z2", ring)
    assert parse_poly(p[2], ring) == parse_poly("y1*z2 + y2*z1", ring)
    assert parse_poly(p[3], ring) == parse_poly("y2*z2", ring)
    assert spec.expected_degree == 6


def test_single_block_is_identity():
    spec = build_typeA_partial([3])
    assert spec.expected_degree == 1
    for i, c in enumerate(components(spec.map)):
        assert c == Poly.variable(spec.map.ring[i], spec.map.ring, QQ)


def test_sn_full_examples():
    s2 = build_Sn_full(2)
    assert s2.map.component_texts() == ["x1 + x2", "x1*x2"]
    s3 = build_Sn_full(3)
    assert s3.expected_degree == 6
    assert len(s3.map.components) == 3
    s1 = build_Sn_full(1)
    assert s1.map.component_texts()[0] == "x1"


def test_bc_full_examples():
    b1 = build_typeBC_full(1)
    assert b1.map.component_texts()[0] == "x1^2"
    b2 = build_typeBC_full(2)
    assert b2.map.component_texts() == ["x1^2 + x2^2", "x1^2*x2^2"]
    assert b2.expected_degree == 8
    assert build_typeBC_full(3).expected_degree == 48


def test_bc_invariance_oracle():
    # components must be invariant under sign flips and coordinate swaps
    spec = build_typeBC_full(2)
    ring, source, _ = ambient_generators(spec)
    x1 = Poly.variable("x1", ring, QQ)
    x2 = Poly.variable("x2", ring, QQ)
    for comp in components(spec.map):
        amb = substitute(comp, dict(zip(spec.map.ring, source)), ring=ring)
        flipped = substitute(amb, {"x1": -x1, "x2": x2})
        swapped = substitute(amb, {"x1": x2, "x2": x1})
        assert flipped == amb
        assert swapped == amb


def test_d_full():
    d2 = build_D_full(2)
    assert d2.map.component_texts() == ["x1^2 + x2^2", "x1*x2"]
    assert d2.expected_degree == 4
    d3 = build_D_full(3)
    assert d3.expected_degree == 24
    with pytest.raises(ValueError):
        build_D_full(1)


def test_d_odd_partial_m2():
    spec = build_D_odd_partial(2)
    ring = spec.map.ring
    assert ring == ("u0", "u1", "u2", "u3", "u4")
    comps = spec.map.component_texts()
    assert parse_poly(comps[0], ring) == parse_poly("u1 + u0^2", ring)
    assert parse_poly(comps[3], ring) == parse_poly("u4^2 + u0^2*u3", ring)
    assert parse_poly(comps[4], ring) == parse_poly("u0*u4", ring)
    assert spec.expected_degree == 10  # 1920 / 192
    # degree bookkeeping: (2*4*6*8*5)/(1*2*4*6*4)
    assert (2 * 4 * 6 * 8 * 5) // (1 * 2 * 4 * 6 * 4) == 10


def test_d_odd_partial_m3_degree():
    spec = build_D_odd_partial(3)
    assert spec.expected_degree == 14  # |W(D7)| / |W(D6)|
    with pytest.raises(ValueError):
        build_D_odd_partial(1)


# ---------------------------------------------------------------------------
# generator substitution identities

@pytest.mark.parametrize(
    "spec_builder",
    [
        lambda: build_typeA_partial([1, 1]),
        lambda: build_typeA_partial([2, 1]),
        lambda: build_typeA_partial([2, 2]),
        lambda: build_typeA_partial([3, 1]),
        lambda: build_typeA_partial([2, 2, 1]),
        lambda: build_Sn_full(3),
        lambda: build_typeBC_full(2),
        lambda: build_typeBC_full(3),
        lambda: build_D_full(2),
        lambda: build_D_full(3),
        lambda: build_D_odd_partial(2),
        lambda: build_D_odd_partial(3),
    ],
)
def test_generator_substitution_identity(spec_builder):
    assert verify_generators(spec_builder())


def test_d_odd_substitution_targets():
    # the composed generators are e_k of all squares plus the full product
    spec = build_D_odd_partial(2)
    ring, _, target = ambient_generators(spec)
    squares = {
        v: Poly.variable(v, ring, QQ) * Poly.variable(v, ring, QQ)
        for v in ring
    }
    for k in range(1, 5):
        expect = substitute(elementary_symmetric(k, ring, ring, QQ), squares)
        assert target[k - 1] == expect
    prod = Poly.constant(1, ring, QQ)
    for v in ring:
        prod = prod * Poly.variable(v, ring, QQ)
    assert target[4] == prod


# ---------------------------------------------------------------------------
# generator degrees

ALL_FAMILIES = [
    lambda: build_typeA_partial([1, 1]),
    lambda: build_typeA_partial([2, 2]),
    lambda: build_typeA_partial([3, 2, 1]),
    lambda: build_Sn_full(1),
    lambda: build_Sn_full(4),
    lambda: build_typeBC_full(1),
    lambda: build_typeBC_full(3),
    lambda: build_D_full(2),
    lambda: build_D_full(4),
    lambda: build_D_odd_partial(2),
    lambda: build_D_odd_partial(3),
    lambda: build_D_odd_partial(4),
]


@pytest.mark.parametrize("spec_builder", ALL_FAMILIES)
def test_oracle_degrees_match_spec(spec_builder):
    ambient_generators(spec_builder())  # asserts the degrees itself


@pytest.mark.parametrize("spec_builder", ALL_FAMILIES)
def test_components_weighted_homogeneous(spec_builder):
    # component i has weighted degree target_degrees[i] in every term, with
    # the source degrees as the weights of the map's variables
    spec = spec_builder()
    weights = spec.source_degrees
    assert len(weights) == len(spec.map.ring)
    assert len(spec.target_degrees) == len(spec.map.components)
    for component, degree in zip(components(spec.map), spec.target_degrees):
        assert {sum(w * e for w, e in zip(weights, mono)) for mono in component.terms} == {degree}


# ---------------------------------------------------------------------------
# dimension ties group index

@pytest.mark.parametrize(
    "spec_builder",
    [
        lambda: build_typeA_partial([2, 2]),
        lambda: build_typeA_partial([2, 1]),
        lambda: build_Sn_full(3),
        lambda: build_typeBC_full(2),
        lambda: build_D_full(2),
        lambda: build_D_odd_partial(2),
        lambda: build_D_odd_partial(3),
    ],
)
def test_quotient_dimension_equals_degree(spec_builder):
    spec = spec_builder()
    qp = quotient_presentation(groebner(spec.map.components, spec.map.ring, spec.map.field))
    assert qp.dimension == spec.expected_degree


# ---------------------------------------------------------------------------
# Jacobian factorization and chain rule

def cross_block_product(ring, blocks):
    """prod (x_i - x_j) over pairs i < j in different contiguous blocks."""
    n = sum(blocks)
    bounds = []
    acc = 0
    for b in blocks:
        acc += b
        bounds.append(acc)
    def block_of(i):
        for k, b in enumerate(bounds):
            if i <= b:
                return k
    result = Poly.constant(1, ring, QQ)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if block_of(i) != block_of(j):
                xi = Poly.variable(f"x{i}", ring, QQ)
                xj = Poly.variable(f"x{j}", ring, QQ)
                result = result * (xi - xj)
    return result


def vandermonde(ring, names):
    result = Poly.constant(1, ring, QQ)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            result = result * (
                Poly.variable(names[i], ring, QQ)
                - Poly.variable(names[j], ring, QQ)
            )
    return result


def jacobian_det(components, ring_names, ring):
    mat = [
        [partial_derivative(c, v) for v in ring_names]
        for c in components
    ]
    return reference_poly_det(mat)


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (1, 2, 1)])
def test_jacobian_factorization(blocks):
    # the map's Jacobian, pushed through the source generators, equals the
    # product of cross-block differences
    spec = build_typeA_partial(list(blocks))
    ring, source, _ = ambient_generators(spec)
    jac_y = jacobian_det(components(spec.map), spec.map.ring, spec.map.ring)
    pushed = substitute(jac_y, dict(zip(spec.map.ring, source)), ring=ring)
    assert pushed == cross_block_product(ring, blocks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_jacobian_is_vandermonde(n):
    spec = build_Sn_full(n)
    jac = jacobian_det(components(spec.map), spec.map.ring, spec.map.ring)
    names = [f"x{i}" for i in range(1, n + 1)]
    assert jac == vandermonde(ambient_generators(spec)[0], names)


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1)])
def test_chain_rule_consistency(blocks):
    # Jacobian(full map) = Jacobian(partial map at the generators) * prod of
    # block Vandermonde determinants
    n = sum(blocks)
    full = build_Sn_full(n)
    partial = build_typeA_partial(list(blocks))
    ring = ambient_generators(full)[0]
    _, partial_source, _ = ambient_generators(partial)
    jac_full = jacobian_det(components(full.map), full.map.ring, ring)
    jac_partial = substitute(
        jacobian_det(components(partial.map), partial.map.ring, partial.map.ring),
        dict(zip(partial.map.ring, partial_source)),
        ring=ring,
    )
    product = jac_partial
    offset = 0
    for b in blocks:
        names = [f"x{offset + j}" for j in range(1, b + 1)]
        product = product * vandermonde(ring, names)
        offset += b
    assert jac_full == product


# ---------------------------------------------------------------------------
# expected shapes

def test_expected_gw_shapes():
    assert expected_gw(build_typeA_partial([2, 2])) == ExpectedShape(4, 2, 0, 6)
    assert expected_gw(build_Sn_full(4)) == ExpectedShape(12, 12, 0, 24)
    assert expected_gw(build_Sn_full(1)) == ExpectedShape(1, 0, 0, 1)
    assert expected_gw(build_typeBC_full(2)) == ExpectedShape(4, 4, 0, 8)
    assert expected_gw(build_D_odd_partial(2)) == ExpectedShape(4, 4, 2, 10)


# ---------------------------------------------------------------------------
# the link to ekl.weyl: the residual of the predicted class is a_P, and the
# rank is the coset count |W| / |W_P|

def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("m", range(2, 7))
def test_d_odd_residual_is_the_weyl_count(m):
    rs = build_root_system("D", 2 * m + 1)
    p = ParabolicSpec.keep(range(1, 2 * m + 1))
    shape = expected_gw(build_D_odd_partial(m))
    assert compute_aP(rs, p, method="enumerate") == shape.residual_count
    assert len(min_coset_reps(rs, p)) == shape.rank


@pytest.mark.parametrize("n", range(2, 8))
def test_typeA_signature_is_the_weyl_count(n):
    rs = build_root_system("A", n - 1)
    for blocks in _compositions(n):
        if blocks == (n,):
            continue
        p = block_parabolic("A", n - 1, blocks)
        shape = expected_gw(build_typeA_partial(blocks))
        assert compute_aP(rs, p, method="enumerate") == shape.ones - shape.minus_ones, blocks
        assert rs.order // parabolic_order_formula(rs, p) == shape.rank, blocks


def test_d_odd_parabolic_is_the_block_parabolic():
    # D_{2m+1} over the block (1): Bourbaki's cut at node 1 is node 2m+1 here
    for m in range(1, 7):
        assert block_parabolic("D", 2 * m + 1, [1]) == ParabolicSpec.keep(range(1, 2 * m + 1))


@pytest.mark.parametrize(
    "label, rank, blocks, kept",
    [
        ("A", 4, (2, 3), {1, 3, 4}),
        ("B", 4, (1, 2), {2, 4}),
        ("C", 3, (3,), {1, 2}),
        ("D", 4, (2, 2), {2, 4}),
        ("D", 5, (2,), {1, 2, 3, 5}),
        ("D", 3, (1, 1, 1), set()),
    ],
)
def test_block_parabolic_cuts(label, rank, blocks, kept):
    assert block_parabolic(label, rank, blocks) == ParabolicSpec.keep(kept)


@pytest.mark.parametrize(
    "label, rank, blocks",
    [("A", 4, (2, 2)), ("B", 3, (2, 2)), ("D", 4, (3,)), ("D", 4, (0, 2)), ("E", 6, (1,)), ("B", 3, ())],
)
def test_block_parabolic_rejects_misfits(label, rank, blocks):
    with pytest.raises(ValueError):
        block_parabolic(label, rank, blocks)


# ---------------------------------------------------------------------------
# the one builder against the per-family oracle builders and closed forms

ORACLE_CASES = (
    [(build_typeA_partial, oracle.typeA_partial, list(b)) for n in range(1, 7) for b in _compositions(n)]
    + [(build_Sn_full, oracle.Sn_full, n) for n in range(1, 7)]
    + [(build_typeBC_full, oracle.typeBC_full, n) for n in range(1, 7)]
    + [(build_D_full, oracle.D_full, n) for n in range(2, 7)]
    + [(build_D_odd_partial, oracle.D_odd_partial, m) for m in range(2, 7)]
)


def _fields(spec):
    return (spec.family, spec.parameters, spec.map, spec.source_degrees, spec.target_degrees)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp32003"])
def test_builders_match_the_oracle_builders(field):
    assert len(ORACLE_CASES) == 85
    for build, old, arg in ORACLE_CASES:
        assert _fields(build(arg, field)) == _fields(old(arg, field)), (build.__name__, arg)


def test_expected_gw_is_the_closed_form():
    for build, old, arg in ORACLE_CASES:
        assert expected_gw(build(arg)) == oracle.closed_form_gw(old(arg)), (build.__name__, arg)


def test_build_quotient_rejects_bad_tails():
    for label, blocks, tail in [("B", [2], -1), ("A", [2], 2), ("D", [2], 1), ("E", [2], 0)]:
        with pytest.raises(ValueError):
            build_quotient(label, blocks, tail, family="X")


def test_build_quotient_names_the_tail():
    b = build_quotient("B", [1], 2, family="B3-partial")
    assert b.map.ring == ("y1", "s1", "s2") and b.source_degrees == (1, 2, 4)
    d = build_quotient("D", [2], 3, family="D5-partial")
    assert d.map.ring == ("y1", "y2", "s1", "s2", "q") and d.source_degrees == (1, 2, 2, 4, 3)
    assert d.map.component_texts()[-1] == "y2*q"
    assert (d.weyl_type, d.rank, d.blocks, d.parameters) == ("D", 5, (2,), (2,))

def test_blocks_2_2_class_matches_prediction():
    spec = build_typeA_partial([2, 2])
    res = ekl_degree(spec.map)
    shape = expected_gw(spec)
    from ekl.gw import gw_equal, units_class

    assert gw_equal(res.gw_class, units_class(shape.ones, shape.minus_ones, (), QQ))


def test_d_odd_class_independent_of_monomial_order():
    from ekl.gw import gw_equal
    from ekl.poly import LEX

    spec = build_D_odd_partial(2)
    assert gw_equal(
        ekl_degree(spec.map).gw_class, ekl_degree(spec.map, order=LEX).gw_class
    )


def test_d_odd_partial_m3_class_shape():
    # degree 14: six split planes plus a rank-2 residual of one square class
    from ekl.gw import gw_equal, recognize_units, units_class
    from ekl.scalar import SquareClass

    res = ekl_degree(build_D_odd_partial(3).map)
    c = res.gw_class
    assert c.rank == 14
    assert abs(c.signature) == 2
    assert c.discriminant == SquareClass(1)
    shape = recognize_units(c)
    alpha = shape.residual[0].rep if shape.residual else 1
    residual = (SquareClass(alpha),) * 2
    assert gw_equal(c, units_class(6, 6, residual, QQ))


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_typeA_partial([])
    with pytest.raises(ValueError):
        build_typeA_partial([0, 2])
    with pytest.raises(ValueError):
        build_Sn_full(0)
    with pytest.raises(ValueError):
        build_typeBC_full(0)
