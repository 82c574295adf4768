import itertools
import random
from fractions import Fraction

import pytest

from conftest import poly, reference_poly_det

from ekl.localg import _Packing
from ekl.poly import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    format_monomial,
    format_poly,
    is_identifier,
    parse_poly,
)
from ekl.scalar import GF, QQ
from poly_oracle import Poly, elementary_symmetric, partial_derivative, substitute

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ring=XY, field=QQ):
    return poly(text, ring, field)


def random_poly(rng, ring, max_deg=3, terms=4, field=QQ):
    out = Poly.zero(ring, field)
    n = len(ring)
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Poly(ring, field, {mono: field.from_int(0) + coeff if field is QQ else field.from_int(int(coeff))})
    return out


# ---------------------------------------------------------------------------
# parsing

def test_parse_examples():
    assert P("x + y") == P("y + x")
    assert P("(x+y)^2 - x^2 - y^2") == P("2*x*y")
    assert P("x*y - 3/2*y^2").terms == {
        (1, 1): Fraction(1),
        (0, 2): Fraction(-3, 2),
    }


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_parse_gives_kernel_values(field):
    # residues in [1, p) over F_p; over Q ints where integral, Fractions otherwise
    terms = parse_poly("3/2*x*y - 3/2*y^2 + 4/2*x - 5*x^2 + 1/2*x*y", XY, field)
    if field.characteristic:
        assert terms == {(1, 1): 2, (0, 2): 2, (1, 0): 2, (2, 0): 2}
    else:
        assert terms == {(1, 1): 2, (0, 2): Fraction(-3, 2), (1, 0): 2, (2, 0): -5}
    assert {m: type(c) for m, c in terms.items()} == {
        m: Fraction if m == (0, 2) and not field.characteristic else int for m in terms
    }


def test_parse_unary_minus_and_power():
    # unary minus binds looser than '^', as in Python
    assert P("-x^2") == -P("x^2")
    assert P("-x^2") == P("-(x^2)") == P("0-x^2") == P("-1*x^2")
    assert P("(-x)^2") == P("x^2")
    assert P("-2^2*x") == P("x").scale(-4)
    assert P("-3*x^2") == P("x^2").scale(-3)
    assert P("2^3") == Poly.constant(8, XY, QQ)


def test_parse_rational_literals():
    assert P("3/2") == Poly.constant(Fraction(3, 2), XY, QQ)
    assert P("- 5/3 * x") == Poly.variable("x", XY, QQ).scale(Fraction(-5, 3))


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        P("x +* 2")
    assert info.value.position == 3
    with pytest.raises(ParseError):
        P("x + ")
    with pytest.raises(ParseError):
        P("(x + y")


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as info:
        P("x + q")
    assert "unknown variable" in str(info.value)


def test_parse_division_by_nonconstant():
    with pytest.raises(ParseError) as info:
        P("1/x")
    assert "non-constant" in str(info.value)


def test_parse_no_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2x")


# the parse oracle: random expression trees, rendered to text, against the
# same tree evaluated with the Polynomial operators

# binding levels of a rendered tree: sum, product, negation, power, atom
SUM, PRODUCT, NEGATION, POWER, ATOM = range(5)


def random_tree(rng, ring, p, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(["int", "frac", "var", "var"])
        if kind == "int":
            return ("int", rng.randint(0, 40))
        if kind == "frac":
            while True:  # a denominator that is zero in F_p is tested separately
                num, den = rng.randint(0, 30), rng.randint(1, 30)
                if not p or Fraction(num, den).denominator % p:
                    return ("frac", num, den)
        return ("var", rng.choice(ring))
    kind = rng.choice(["neg", "pow", "add", "sub", "mul", "mul"])
    if kind == "neg":
        return ("neg", random_tree(rng, ring, p, depth - 1))
    if kind == "pow":
        return ("pow", random_tree(rng, ring, p, min(depth - 1, 1)), rng.randint(0, 4))
    return (kind, random_tree(rng, ring, p, depth - 1), random_tree(rng, ring, p, depth - 1))


def render(rng, tree, level=SUM):
    """Text of the tree that binds at least as tight as ``level``, with
    parentheses where the grammar needs them and at random elsewhere."""
    kind = tree[0]
    if kind == "int":
        text, own = str(tree[1]), ATOM
    elif kind == "frac":
        text, own = f"{tree[1]}/{tree[2]}", ATOM
    elif kind == "var":
        text, own = tree[1], ATOM
    elif kind == "neg":
        text, own = "-" + render(rng, tree[1], NEGATION), NEGATION
    elif kind == "pow":
        text, own = f"{render(rng, tree[1], ATOM)}^{tree[2]}", POWER
    elif kind == "mul":
        text, own = f"{render(rng, tree[1], PRODUCT)}*{render(rng, tree[2], NEGATION)}", PRODUCT
    else:
        op = " + " if kind == "add" else " - "
        text, own = render(rng, tree[1], SUM) + op + render(rng, tree[2], PRODUCT), SUM
    if own < level or rng.random() < 0.1:
        return f"({text})"
    return text


def evaluate(tree, ring, field):
    kind = tree[0]
    if kind == "int":
        return Poly.constant(tree[1], ring, field)
    if kind == "frac":
        return Poly.constant(Fraction(tree[1], tree[2]), ring, field)
    if kind == "var":
        return Poly.variable(tree[1], ring, field)
    if kind == "neg":
        return -evaluate(tree[1], ring, field)
    if kind == "pow":
        return evaluate(tree[1], ring, field) ** tree[2]
    a, b = evaluate(tree[1], ring, field), evaluate(tree[2], ring, field)
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=["Q", "F7", "F32003"])
def test_parse_matches_polynomial_operators_on_random_trees(field):
    rng = random.Random(2112)
    p = field.characteristic
    for _ in range(300):
        tree = random_tree(rng, XYZ, p, depth=4)
        text = render(rng, tree)
        parsed, expected = poly(text, XYZ, field), evaluate(tree, XYZ, field)
        assert parsed == expected, text
        assert {m: type(c) for m, c in parsed.terms.items()} == {
            m: type(c) for m, c in expected.terms.items()
        }, text
    if not p:
        return
    # a denominator divisible by p is refused where it is read
    for _ in range(20):
        body = render(rng, random_tree(rng, XYZ, p, depth=3))
        den = p * rng.randint(1, 4)
        with pytest.raises(ParseError) as info:
            parse_poly(f"{body} + 5/{den}", XYZ, field)
        assert str(info.value) == (
            f"denominator {den} is zero in {field!r} (at position {len(body) + 5})"
        )
        assert info.value.position == len(body) + 5
    # one that cancels in the fraction is not
    assert parse_poly(f"{2 * p}/{p}*x", XYZ, field) == parse_poly("2*x", XYZ, field)


@pytest.mark.parametrize(
    "name, expected",
    [("x", True), ("x_1", True), ("_a2", True), ("", False), ("2", False), ("x1 ", False),
     (" x", False), ("y z", False), ("x+y", False), ("x.y", False)],
)
def test_is_identifier_is_one_token_of_the_parser(name, expected):
    assert is_identifier(name) is expected


def test_print_parse_round_trip():
    rng = random.Random(5)
    for _ in range(120):
        p = random_poly(rng, XYZ, max_deg=3, terms=4)
        assert poly(format_poly(p), XYZ) == p
    # the leading negative-unit corner
    p = P("-1*x^2 + y")
    assert poly(format_poly(p), XY) == p
    assert format_poly(P("0")) == "0"


def test_format_monomial():
    assert format_monomial((0, 0, 0), XYZ) == "1"
    assert format_monomial((2, 0, 1), XYZ) == "x^2*z"
    assert format_monomial((0, 1, 0), XYZ) == "y"
    assert format_poly(P("3 - 2*x*y^2 + x")) == "-2*x*y^2 + x + 3"


def test_print_over_prime_field():
    f5 = GF(5)
    p = poly("4*x + 3", XY, f5)
    assert format_poly(p) in ("4*x + 3", "3 + 4*x")
    assert poly(format_poly(p), XY, f5) == p


# ---------------------------------------------------------------------------
# ring axioms

def test_ring_axioms_randomized():
    rng = random.Random(13)
    for _ in range(60):
        a = random_poly(rng, XY)
        b = random_poly(rng, XY)
        c = random_poly(rng, XY)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    assert a - a == Poly.zero(XY, QQ)


def test_pow():
    x = Poly.variable("x", XY, QQ)
    assert (x + x) ** 0 == Poly.constant(1, XY, QQ)
    p = P("x + y")
    assert p ** 3 == p * p * p


# ---------------------------------------------------------------------------
# orders

def test_degrevlex_vs_lex():
    # degrevlex: higher total degree wins; ties broken against the last variable
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    assert DEGREVLEX.max([x2, xy, y2]) == x2
    assert DEGREVLEX.sorted([y2, x2, xy]) == [y2, xy, x2]
    assert LEX.max([(1, 0), (0, 5)]) == (1, 0)
    assert DEGREVLEX.max([(1, 0), (0, 5)]) == (0, 5)


def test_order_compatible_with_multiplication():
    rng = random.Random(23)
    monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    for order in (DEGREVLEX, LEX, MonomialOrder("degrevlex", (1, 2, 3))):
        for a, b in itertools.combinations(monos, 2):
            if order.key(a) < order.key(b):
                shift = (1, 2, 0)
                am = tuple(u + v for u, v in zip(a, shift))
                bm = tuple(u + v for u, v in zip(b, shift))
                assert order.key(am) < order.key(bm)


def test_weighted_degrevlex():
    # y and x^2 tie on the weight 2, x*y and x^3 on 3; revlex puts the
    # power of x above each time, as degrevlex puts x^2 above y^2
    order = MonomialOrder("degrevlex", (1, 2))
    assert order.sorted([(0, 2), (3, 0), (1, 1), (2, 0), (0, 1)]) == [(0, 1), (2, 0), (1, 1), (3, 0), (0, 2)]
    assert order.max([(3, 0), (0, 2)]) == (0, 2)
    assert DEGREVLEX.max([(3, 0), (0, 2)]) == (3, 0)


def test_all_ones_weights_are_degrevlex():
    ones = MonomialOrder("degrevlex", (1, 1, 1))
    assert ones == DEGREVLEX and DEGREVLEX == ones
    assert hash(ones) == hash(DEGREVLEX)
    assert repr(ones) == repr(DEGREVLEX) == "MonomialOrder('degrevlex')"
    weighted = MonomialOrder("degrevlex", [1, 2, 3])
    assert weighted != DEGREVLEX and weighted == MonomialOrder("degrevlex", (1, 2, 3))
    assert repr(weighted) == "MonomialOrder('degrevlex', (1, 2, 3))"
    assert len({weighted, MonomialOrder("degrevlex", (1, 2, 3)), ones, DEGREVLEX}) == 2


def test_bad_weights_are_refused():
    with pytest.raises(ValueError, match="takes no weights"):
        MonomialOrder("lex", (1, 2))
    for weights in ((), (1, 0), (2, -1), (1, 1.5)):
        with pytest.raises(ValueError, match="positive ints"):
            MonomialOrder("degrevlex", weights)
    with pytest.raises(ValueError, match="do not match the ring"):
        _Packing(MonomialOrder("degrevlex", (1, 2)), 3, 8)


def test_packed_monomials_compare_as_the_weighted_key():
    # the weighted degree sits in the top field: int order is the key's order
    order = MonomialOrder("degrevlex", (3, 1, 2))
    pk = _Packing(order, 3, 8)
    monos = list(itertools.product(range(4), repeat=3))
    assert sorted(monos, key=pk.pack) == order.sorted(monos)
    assert all(pk.unpack(pk.pack(m)) == m for m in monos)


# ---------------------------------------------------------------------------
# elementary symmetric functions

def test_elementary_symmetric_examples():
    assert elementary_symmetric(1, XYZ, XYZ) == P("x + y + z", XYZ)
    assert elementary_symmetric(2, XYZ, XYZ) == P("x*y + x*z + y*z", XYZ)
    assert elementary_symmetric(0, XY, XY) == Poly.constant(1, XY, QQ)
    with pytest.raises(ValueError):
        elementary_symmetric(3, XY, XY)


def test_generating_function_identity():
    # sum_k e_k t^k = prod (1 + v t) for up to 6 variables
    for n in range(1, 7):
        names = tuple(f"v{i}" for i in range(n))
        ring = names + ("t",)
        t = Poly.variable("t", ring, QQ)
        lhs = Poly.zero(ring, QQ)
        for k in range(n + 1):
            lhs = lhs + elementary_symmetric(k, names, ring, QQ) * t**k
        rhs = Poly.constant(1, ring, QQ)
        for name in names:
            rhs = rhs * (Poly.constant(1, ring, QQ) + Poly.variable(name, ring, QQ) * t)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the Bareiss determinant oracle over K[x] (conftest.reference_poly_det)

def leibniz_det(matrix):
    """Independent oracle: the permutation sum."""
    n = len(matrix)
    first = matrix[0][0]
    total = Poly.zero(first.ring, first.field)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.constant(sign, first.ring, first.field)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def test_det_examples():
    one = Poly.constant(1, XY, QQ)
    zero = Poly.zero(XY, QQ)
    y = Poly.variable("y", XY, QQ)
    x = Poly.variable("x", XY, QQ)
    assert reference_poly_det([[one, one], [y, zero]]) == -y
    assert reference_poly_det([[one, zero], [zero, one]]) == one
    assert reference_poly_det([[x, zero], [zero, y]]) == x * y


def test_det_identity_3x3():
    one = Poly.constant(1, XYZ, QQ)
    zero = Poly.zero(XYZ, QQ)
    m = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert reference_poly_det(m) == one


def test_det_against_leibniz():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(6):
            m = [
                [random_poly(rng, XY, max_deg=1, terms=2) for _ in range(n)]
                for _ in range(n)
            ]
            assert reference_poly_det(m) == leibniz_det(m)


def test_det_with_zero_pivot_rows():
    zero = Poly.zero(XY, QQ)
    one = Poly.constant(1, XY, QQ)
    x = Poly.variable("x", XY, QQ)
    assert reference_poly_det([[zero, one], [x, zero]]) == -x
    assert reference_poly_det([[zero, zero], [x, one]]) == zero


def test_det_rejects_ragged():
    one = Poly.constant(1, XY, QQ)
    with pytest.raises(ValueError):
        reference_poly_det([[one, one], [one]])


# ---------------------------------------------------------------------------
# derivatives and substitution

def test_partial_derivative_examples():
    assert partial_derivative(P("x^2*y"), "x") == P("2*x*y")
    assert partial_derivative(P("y^3"), "x") == Poly.zero(XY, QQ)
    assert partial_derivative(P("x*y"), "y") == P("x")
    with pytest.raises(ValueError):
        partial_derivative(P("x"), "q")


def test_derivative_product_rule():
    rng = random.Random(41)
    for _ in range(40):
        f = random_poly(rng, XY)
        g = random_poly(rng, XY)
        lhs = partial_derivative(f * g, "x")
        rhs = partial_derivative(f, "x") * g + f * partial_derivative(g, "x")
        assert lhs == rhs


def test_substitute_examples():
    f = P("x^2")
    image = substitute(f, {"x": P("x + y")})
    assert image == P("x^2 + 2*x*y + y^2")
    idy = {"x": P("x"), "y": P("y")}
    assert substitute(P("x + y"), idy) == P("x + y")
    uv = ("u", "v")
    f = P("x*y")
    image = substitute(f, {"x": P("u + v", uv), "y": P("u - v", uv)})
    assert image == P("u^2 - v^2", uv)


def test_substitute_missing_entry():
    with pytest.raises(ValueError):
        substitute(P("x + y"), {"x": P("x")})


def test_substitute_composition_associativity():
    rng = random.Random(43)
    for _ in range(20):
        f = random_poly(rng, XY, max_deg=2, terms=3)
        g = {v: random_poly(rng, XY, max_deg=2, terms=2) for v in XY}
        h = {v: random_poly(rng, XY, max_deg=1, terms=2) for v in XY}
        lhs = substitute(substitute(f, g), h)
        gh = {v: substitute(g[v], h) for v in XY}
        rhs = substitute(f, gh)
        assert lhs == rhs
