"""The degree split of weighted-homogeneous maps (``degree.degree_class``).

Oracles: ``ekl_degree`` on the full, unstripped map (the same dimension and
a ``gw_equal`` class), and the CLI with ``degree_class`` replaced by it
(the same stdout, stderr and exit code, minus ``timing_seconds``).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import ekl.cli
import ekl.degree
import ekl.gw
import ekl.localg
from ekl.cli import build_parser
from ekl.degree import (
    CERTIFICATE_PRIME,
    MAP_FAILURES,
    MapSpec,
    _full_rank,
    _split_form,
    _top_socle_index,
    degree_class,
    homogeneous_weights,
    strip_solved,
)
from ekl.gw import DegenerateFormError, classify, gw_equal
from ekl.localg import coordinates, groebner, quotient_presentation
from conftest import poly
from ekl.poly import parse_poly
from ekl.scalar import GF, QQ
from test_strip import full_class, load_workloads, run, untimed

P = 32003
LADDER = [args for _, args, _ in load_workloads().QUOTIENT_LADDER]
LARGE = [
    ("--type", "Sn", "--n", "6"),
    ("--type", "B", "--rank", "4"),
    ("--type", "D", "--rank", "4"),
    ("--type", "A", "--blocks", "4,4"),
    ("--type", "A", "--blocks", "2,2,1,1"),
    ("--type", "D", "--rank", "11", "--parabolic", "D10"),
    ("--type", "D", "--rank", "13", "--parabolic", "D12"),
]
_FULL: dict = {}


def cached_full_class(f):
    """``full_class`` once per map, shared by the tests of this module."""
    key = (repr(f.field), f.to_json())
    if key not in _FULL:
        _FULL[key] = full_class(f)
    return _FULL[key]


def family_spec(args, field="q"):
    return ekl.cli._build_quotient_spec(build_parser().parse_args(["quotient", *args, "--field", field]))


@pytest.mark.parametrize(
    "args, field",
    [(a, "q") for a in LADDER + LARGE] + [(a, f"fp:{P}") for a in LADDER],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_degree_class_equals_the_full_path_on_family_members(args, field):
    f = family_spec(args, field).map
    dimension, cls = degree_class(f)
    full_dimension, full = cached_full_class(f)
    assert dimension == full_dimension
    assert gw_equal(cls, full)


@pytest.mark.parametrize("field", ["q", f"fp:{P}"])
def test_degree_class_makes_no_groebner_generators(monkeypatch, field):
    # the class path reads GroebnerBasis.packed only; the generators are
    # made as Polynomials on first access
    made = []

    class Counting(ekl.localg.Polynomial):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ekl.localg, "Polynomial", Counting)
    f = family_spec(("--type", "A", "--blocks", "3,2"), field).map
    degree_class(f)
    assert made == []
    gb = groebner(f.components, f.ring, f.field)
    assert made == []
    generators = gb.generators  # made here, one Polynomial each
    assert len(made) == len(generators) > 0


# test_strip compares the ladder and the D-odd members the same way
@pytest.mark.parametrize("args", LARGE[:5], ids=" ".join)
def test_quotient_prints_what_the_full_path_prints_on_large_members(capsys, monkeypatch, args):
    split = run(capsys, "quotient", *args)
    monkeypatch.setattr(ekl.cli, "degree_class", cached_full_class)
    full = run(capsys, "quotient", *args)
    assert (split[0], untimed(split[1]), split[2]) == (full[0], untimed(full[1]), full[2])
    assert split[0] == 0


@pytest.mark.parametrize("field", ["q", f"fp:{P}"])
def test_degree_invariants_print_what_the_full_path_prints(tmp_path, capsys, monkeypatch, field):
    ops = load_workloads().random_ops(1, field, str(tmp_path))
    split = [run(capsys, *op.argv) for op in ops]
    monkeypatch.setattr(ekl.cli, "degree_class", full_class)
    assert [run(capsys, *op.argv) for op in ops] == split
    fld = QQ if field == "q" else GF(P)
    graded = 0
    for op in ops:
        with open(op.argv[1], encoding="utf-8") as handle:
            f = MapSpec.from_json(handle.read(), fld)
        graded += homogeneous_weights(strip_solved(f)[0]) is not None
    assert 0 < graded < len(ops)


# ---------------------------------------------------------------------------
# seeded maps with planted weights


def planted_graded_map(rng: random.Random, field) -> MapSpec:
    """A map homogeneous for random weights in 1..3: component i holds
    c * x_i^e_i and up to two other monomials of the same weighted degree."""
    n = rng.randint(2, 3)
    ring = ("x", "y", "z")[:n]
    weights = [rng.randint(1, 3) for _ in range(n)]
    components = []
    for i in range(n):
        e = rng.randint(1, 3)
        degree = e * weights[i]
        power = tuple(e if k == i else 0 for k in range(n))
        others = [
            m
            for m in itertools.product(range(degree + 1), repeat=n)
            if m != power and sum(a * w for a, w in zip(m, weights)) == degree
        ]
        terms = [power] + rng.sample(others, min(len(others), rng.randint(0, 2)))
        text = " + ".join(
            f"{rng.choice((1, -1, 2, -3, 5))}*" + "*".join(f"{v}^{a}" for v, a in zip(ring, m) if a)
            for m in terms
        )
        components.append(parse_poly(text, ring, field))
    return MapSpec(ring, field, tuple(components))


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["q", f"fp{P}"])
def test_degree_class_equals_the_full_path_on_planted_weights(field):
    rng = random.Random(20261018)
    checked = stripped = 0
    for _ in range(60):
        f = planted_graded_map(rng, field)
        # stripping keeps a map graded, so both take the graded path
        assert homogeneous_weights(f) is not None, f.components
        assert homogeneous_weights(strip_solved(f)[0]) is not None, f.components
        try:
            full_dimension, full = full_class(f)
        except MAP_FAILURES:
            continue
        dimension, cls = degree_class(f)
        assert dimension == full_dimension
        assert gw_equal(cls, full), f.components
        checked += 1
        stripped += strip_solved(f)[0] is not f
    assert checked >= 50 and stripped >= 20


# ---------------------------------------------------------------------------
# the weight finder


def test_weights_of_non_homogeneous_maps_are_none():
    xy = ("x", "y")
    for components in (
        ["x + y^2", "y^3 + x"],
        ["x^2 + y^3 + x*y", "y^2"],
        ["x + x^2", "y"],
    ):
        assert homogeneous_weights(MapSpec.from_strings(xy, components)) is None


@pytest.mark.parametrize("args", LADDER + LARGE, ids=" ".join)
def test_stripped_family_maps_get_positive_weights(args):
    spec = family_spec(args)
    weights = homogeneous_weights(strip_solved(spec.map)[0])
    assert weights is not None and min(weights) > 0
    # the unstripped map is graded by its source degrees
    divisor = math.gcd(*spec.source_degrees)
    assert homogeneous_weights(spec.map) == tuple(d // divisor for d in spec.source_degrees)


def test_weights_of_monomial_and_quasi_homogeneous_maps():
    xyz = ("x", "y", "z")
    assert homogeneous_weights(MapSpec.from_strings(xyz, ["x^2", "-3*y^3", "z"])) == (1, 1, 1)
    assert homogeneous_weights(MapSpec.from_strings(xyz[:2], ["x^3*y", "y^2"])) == (1, 1)
    assert homogeneous_weights(MapSpec.from_strings(xyz[:2], ["x^2 + y^3", "y^5"])) == (3, 2)
    assert homogeneous_weights(MapSpec.from_strings(xyz, ["x*y + z^2", "y^2", "x^3"])) == (1, 1, 1)


# ---------------------------------------------------------------------------
# the perfect-pairing certificate


def sparse(matrix):
    """The rows of a matrix as the ``{column: value}`` dicts ``_full_rank``
    reads, zeros kept."""
    return [dict(enumerate(row)) for row in matrix]


def test_certificate_falls_back_to_the_exact_rank(monkeypatch):
    calls = []
    real_rank = ekl.degree._rank

    def spy(rows, p=0):
        calls.append(p)
        return real_rank(rows, p)

    monkeypatch.setattr(ekl.degree, "_rank", spy)
    # the rank modulo the prime is short, the exact rank is full
    assert _full_rank(sparse([[Fraction(CERTIFICATE_PRIME), Fraction(0)], [Fraction(0), Fraction(1)]]), QQ)
    assert calls == [CERTIFICATE_PRIME, 0]
    # a denominator divisible by the prime has no residue: exact rank only
    calls.clear()
    assert _full_rank(sparse([[Fraction(1, CERTIFICATE_PRIME)]]), QQ)
    assert calls == [0]
    # a full rank modulo the prime needs no exact rank
    calls.clear()
    assert _full_rank(sparse([[Fraction(1, 3), Fraction(2)], [Fraction(1), Fraction(5)]]), QQ)
    assert calls == [CERTIFICATE_PRIME]
    # singular over Q, and over F_p exactly by the rank modulo p
    assert not _full_rank(sparse([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]]), QQ)
    fp = GF(7)
    assert not _full_rank(sparse([[1, 3], [2, 6]]), fp)  # the kernels' residues over F_p
    assert _full_rank(sparse([[1, 3], [2, 5]]), fp)


def presentation(ring, generators, socle):
    """Q = K[ring]/(generators) and the class of ``socle`` in it."""
    qp = quotient_presentation(groebner([parse_poly(g, ring, QQ) for g in generators], ring, QQ))
    return qp, coordinates(poly(socle, ring), qp).coordinates


def split_and_classify(qp, socle, weights):
    """``_split_form`` of Q graded by ``weights``, then ``classify`` of its middle block."""
    degree = [sum(w * e for w, e in zip(weights, b)) for b in qp.standard_monomials]
    index = _top_socle_index(socle)
    return classify(_split_form(qp, socle, index, degree)[1], qp.field)


def test_a_singular_pairing_is_degenerate():
    # Q = K[x,z]/(xz, z^3, x^4) has the Hilbert function (1, 2, 2, 1), but z^2
    # lies in the socle too, so x^3 leaves Q_1 x Q_2 singular
    qp, socle = presentation(("x", "z"), ["x*z", "z^3", "x^4"], "x^3")
    with pytest.raises(DegenerateFormError, match="pairing of degrees 1 and 2"):
        split_and_classify(qp, socle, (1, 1))
    # Q = K[x,y]/(x^2, xy, y^3): x pairs to zero with the middle degree
    qp, socle = presentation(("x", "y"), ["x^2", "x*y", "y^3"], "y^2")
    with pytest.raises(DegenerateFormError):
        split_and_classify(qp, socle, (1, 1))
    # Q = K[x,y]/(x^2, y^2) with E = x: degree 2 has no partner
    qp, socle = presentation(("x", "y"), ["x^2", "y^2"], "x")
    with pytest.raises(DegenerateFormError, match="differ in dimension"):
        split_and_classify(qp, socle, (1, 1))


def test_sn5_diagonalizes_only_its_middle_block(capsys, monkeypatch):
    sizes = []
    real = ekl.gw.diagonalize

    def recording(g):
        sizes.append(g.dimension)
        return real(g)

    monkeypatch.setattr(ekl.gw, "diagonalize", recording)
    code, out, _ = run(capsys, "quotient", "--type", "Sn", "--n", "5")
    assert code == 0 and "computed: 60<1> + 60<-1>" in out
    assert sizes == [22]
