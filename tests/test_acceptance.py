"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact; every equality is bit-exact.  Time limits are the
stated per-criterion budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction

from conftest import compose_maps, linear_map, random_origin_map, random_unipotent

from ekl.degree import MapSpec, ekl_degree
from ekl.gw import (
    classify_diagonal,
    gw_equal,
    gw_mul,
    hilbert_symbol,
    hyperbolic_class,
    recognize_units,
    units_class,
)
from ekl.quotmap import (
    build_D_odd_partial,
    build_Sn_full,
    build_typeA_partial,
    build_typeBC_full,
)
from ekl.scalar import GF, QQ, SquareClass, factorize, squarefree_part
from ekl.weyl import (
    ParabolicSpec,
    aP_formula_typeA,
    block_parabolic,
    build_root_system,
    compute_aP,
    is_central_longest,
)

REAL_PLACE = "inf"


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label} took {self.elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.label} [{self.elapsed:.2f}s]")
        return False


def units(p, q, *residual):
    return units_class(p, q, tuple(SquareClass(a) for a in residual), QQ)


def test_criterion_1_s2_quotient():
    with Budget(1.0, "criterion 1: S2 quotient (x+y, xy) = <1> + <-1>"):
        res = ekl_degree(MapSpec.from_strings(("x", "y"), ["x + y", "x*y"]))
        assert gw_equal(res.gw_class, units(1, 1))
        assert res.dimension == 2


def test_criterion_2_full_symmetric_quotients():
    with Budget(60.0, "criterion 2: S3 and S4 full quotients are split"):
        res3 = ekl_degree(build_Sn_full(3).map)
        assert res3.dimension == 6
        assert gw_equal(res3.gw_class, units(3, 3))
        res4 = ekl_degree(build_Sn_full(4).map)
        assert res4.dimension == 24
        assert gw_equal(res4.gw_class, units(12, 12))


def test_criterion_3_partial_quotient_table():
    cases = [
        ((2, 2), 4, 2),
        ((2, 1), 2, 1),
        ((3, 1), 2, 2),
        ((2, 2, 1), 16, 14),
    ]
    for blocks, p, q in cases:
        with Budget(300.0, f"criterion 3: blocks {blocks} = {p}<1> + {q}<-1>"):
            res = ekl_degree(build_typeA_partial(list(blocks)).map)
            assert res.dimension == p + q
            assert gw_equal(res.gw_class, units(p, q))
            shape = recognize_units(res.gw_class)
            assert (shape.ones, shape.minus_ones, shape.residual) == (p, q, ())


def test_criterion_4_b2_full_quotient():
    with Budget(10.0, "criterion 4: B2 quotient (x^2+y^2, x^2y^2) = 4(<1> + <-1>)"):
        spec = build_typeBC_full(2)
        assert spec.map.component_texts() == ["x1^2 + x2^2", "x1^2*x2^2"]
        res = ekl_degree(spec.map)
        assert res.dimension == 8
        assert gw_equal(res.gw_class, units(4, 4))


def test_criterion_5_d5_d4_partial_quotient():
    with Budget(600.0, "criterion 5: D5/D4 has rank 10 and shape 4(<1>+<-1>) + 2<alpha>"):
        res = ekl_degree(build_D_odd_partial(2).map)
        c = res.gw_class
        assert c.rank == 10
        assert c.discriminant == SquareClass(1)
        assert abs(c.signature) == 2
        # the residual square class: from the maximal decomposition when it
        # shows one, else alpha is in the trivial class and was absorbed
        shape = recognize_units(c)
        assert shape is not None
        if shape.residual:
            assert len(shape.residual) == 2
            alpha = shape.residual[0].rep
            assert (shape.ones, shape.minus_ones) == (4, 4)
        else:
            alpha = 1
        assert gw_equal(c, units(4, 4, alpha, alpha))


def test_criterion_6_self_dual_coset_counts():
    with Budget(120.0, "criterion 6a: E6 suite (5760/1920 = 3, 1152/192 = 6, rest 0)"):
        e6 = build_root_system("E", 6)
        assert compute_aP(e6, ParabolicSpec.remove(e6, [1]), method="enumerate") == 3
        assert compute_aP(e6, ParabolicSpec.remove(e6, [1, 6]), method="enumerate") == 6
        for node in (2, 3, 4, 5):
            p = ParabolicSpec.remove(e6, [node])
            assert compute_aP(e6, p, method="enumerate") == 0

    with Budget(300.0, "criterion 6b: D5/D4 and D7/D6 both give 2 by enumeration"):
        d5 = build_root_system("D", 5)
        assert compute_aP(d5, ParabolicSpec.keep([1, 2, 3, 4]), method="enumerate") == 2
        d7 = build_root_system("D", 7)
        assert compute_aP(d7, ParabolicSpec.keep([1, 2, 3, 4, 5, 6]), method="enumerate") == 2

    with Budget(120.0, "criterion 6c: central types vanish (shortcut + rank <= 4 cross-check)"):
        central = [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                   ("D", 6), ("F", 4), ("G", 2), ("E", 7), ("E", 8)]
        for label, rank in central:
            rs = build_root_system(label, rank)
            assert is_central_longest(rs)
            for node in rs.nodes:
                p = ParabolicSpec.remove(rs, [node])
                assert compute_aP(rs, p, method="auto") == 0
                if rank <= 4:
                    assert compute_aP(rs, p, method="enumerate") == 0


def test_criterion_7_formula_vs_enumeration_n6():
    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    with Budget(60.0, "criterion 7: formula = enumeration for the 31 compositions of 6"):
        a5 = build_root_system("A", 5)
        checked = 0
        for blocks in compositions(6):
            if blocks == (6,):
                continue  # the parabolic would be the whole group
            p = block_parabolic("A", 5, blocks)
            assert compute_aP(a5, p, method="enumerate") == aP_formula_typeA(blocks), blocks
            checked += 1
        assert checked == 31


def test_criterion_8a_jacobian_socle_relation():
    from ekl.degree import jacobian_element, prepare_quotient, socle_element

    with Budget(120.0, "criterion 8a: J = dim * E on every quotient map computed"):
        specs = [
            build_Sn_full(2), build_Sn_full(3), build_Sn_full(4),
            build_typeA_partial([2, 1]), build_typeA_partial([2, 2]),
            build_typeA_partial([3, 1]), build_typeA_partial([2, 2, 1]),
            build_typeBC_full(1), build_typeBC_full(2), build_D_odd_partial(2),
        ]
        for spec in specs:
            _, qp = prepare_quotient(spec.map)
            socle = socle_element(spec.map, qp)
            jac = jacobian_element(spec.map, qp)
            assert tuple(qp.dimension * c for c in socle) == jac


def test_criterion_8b_composition_multiplicativity():
    with Budget(120.0, "criterion 8b: composition multiplicativity on 100 random pairs"):
        rng = random.Random(2024)
        for _ in range(60):
            f = random_origin_map(rng)
            g = random_origin_map(rng)
            h = compose_maps(f, g)
            assert gw_equal(
                ekl_degree(h).gw_class,
                gw_mul(ekl_degree(f).gw_class, ekl_degree(g).gw_class),
            )
        for _ in range(40):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            c1, c2 = rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3, -1, -2])
            f = MapSpec.from_strings(("x",), [f"{c1}*x^{a}"])
            g = MapSpec.from_strings(("x",), [f"{c2}*x^{b}"])
            assert gw_equal(
                ekl_degree(compose_maps(f, g)).gw_class,
                gw_mul(ekl_degree(f).gw_class, ekl_degree(g).gw_class),
            )


def test_criterion_8c_unipotent_invariance():
    with Budget(120.0, "criterion 8c: unipotent invariance on 20 random triples"):
        rng = random.Random(4096)
        for _ in range(20):
            f = random_origin_map(rng)
            g = random_origin_map(rng)
            u = linear_map(random_unipotent(rng, 2), ("x", "y"))
            assert gw_equal(
                ekl_degree(compose_maps(f, compose_maps(u, g))).gw_class,
                ekl_degree(compose_maps(f, g)).gw_class,
            )


def test_criterion_8d_hilbert_reciprocity():
    with Budget(120.0, "criterion 8d: Hilbert reciprocity on 200 random pairs"):
        rng = random.Random(8192)
        for _ in range(200):
            a = Fraction(rng.randint(-80, 80) or 13, rng.randint(1, 50))
            b = Fraction(rng.randint(-80, 80) or -17, rng.randint(1, 50))
            places = {2, REAL_PLACE}
            for value in (a, b):
                for prime in factorize(abs(squarefree_part(value))):
                    if prime != 2:
                        places.add(prime)
            product = 1
            for place in places:
                product *= hilbert_symbol(a, b, place)
            assert product == 1


def test_criterion_8e_hyperbolic_identities():
    with Budget(120.0, "criterion 8e: hyperbolic absorption and <a> + <-a> = H"):
        rng = random.Random(16384)
        h = hyperbolic_class(QQ)
        for _ in range(50):
            entries = [
                Fraction(rng.choice([-11, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 11]))
                for _ in range(rng.randint(1, 5))
            ]
            c = classify_diagonal(entries, QQ)
            assert gw_equal(gw_mul(h, c), classify_diagonal([1, -1] * len(entries), QQ))
        for _ in range(50):
            a = Fraction(rng.randint(-60, 60) or 5, rng.randint(1, 40))
            assert gw_equal(classify_diagonal([a, -a], QQ), h)


def test_criterion_9_finite_field_run():
    with Budget(30.0, "criterion 9: blocks (2,2) over F5 is rank-6 nondegenerate"):
        spec = build_typeA_partial([2, 2], GF(5))
        res = ekl_degree(spec.map)
        assert res.gw_class.rank == 6
        assert res.dimension == 6
        for row in res.gram:
            assert len(row) == 6
        # nondegeneracy was certified by classification over F5
        assert res.gw_class.disc_legendre in (1, -1)
