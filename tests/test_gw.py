import random
from fractions import Fraction
from itertools import combinations

import pytest

import ekl.gw
from ekl.degree import ekl_degree
from ekl.gw import (
    REAL_PLACE,
    DegenerateFormError,
    GramForm,
    UnitsShape,
    classify,
    classify_diagonal,
    diagonalize,
    gw_add,
    gw_equal,
    gw_mul,
    hilbert_symbol,
    hyperbolic_class,
    recognize_units,
    render_class,
    unit_class,
    units_class,
)
from ekl.quotmap import (
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_typeA_partial,
    build_typeBC_full,
)
from ekl.scalar import GF, QQ, PrimeFieldElement, SquareClass, factorize, squarefree_part

F = GF(32003)


def gram(rows):
    return GramForm.from_rows(rows, QQ)


# ---------------------------------------------------------------------------
# reference oracles: the direct constructions the fast paths replace

def reference_diagonalize(g: GramForm) -> list:
    """Symmetric elimination with a full row pass and a full column pass
    per pivot."""
    n = g.dimension
    m = [list(row) for row in g.field_entries()]
    zero = m[0][0] - m[0][0] if n else 0
    one = g.field.one
    diag = []
    for k in range(n):
        if m[k][k] == zero:
            partner = next((j for j in range(k + 1, n) if m[k][j] != zero), None)
            if partner is None:
                raise DegenerateFormError("zero row in the remaining block")
            for unit in (one, -one):
                candidate = m[k][k] + m[partner][partner] + (m[k][partner] + m[k][partner]) * unit
                if candidate != zero:
                    break
            for t in range(n):
                m[k][t] = m[k][t] + m[partner][t] * unit
            for t in range(n):
                m[t][k] = m[t][k] + m[t][partner] * unit
        pivot = m[k][k]
        if pivot == zero:
            raise DegenerateFormError("could not produce a nonzero pivot")
        diag.append(pivot)
        for i in range(k + 1, n):
            factor = m[k][i] / pivot
            if factor == zero:
                continue
            for t in range(k, n):
                m[i][t] = m[i][t] - factor * m[k][t]
            for t in range(k, n):
                m[t][i] = m[t][i] - factor * m[t][k]
    return diag


# ``diagonalize`` on field values, as it was before it ran on kernel values,
# on the whole matrix at once
def field_element_diagonalize(g: GramForm) -> list:
    """Diagonal of a congruent diagonal matrix, by symmetric elimination:
    m[i][t] -= (m[k][i] / m[k][k]) * m[k][t] for k < i <= t, over the
    nonzero entries of row k, mirrored into m[t][i].  A zero diagonal pivot
    with a nonzero off-diagonal partner is repaired by the basis change
    b_k <- b_k +- b_partner."""
    n = g.dimension
    m = [list(row) for row in g.field_entries()]
    zero, one = g.field.zero, g.field.one
    diag = []
    for k in range(n):
        if m[k][k] == zero:
            partner = None
            for j in range(k + 1, n):
                if m[k][j] != zero:
                    partner = j
                    break
            if partner is None:
                raise DegenerateFormError("zero row in the remaining block")
            for unit in (one, -one):
                candidate = m[k][k] + m[partner][partner] + (m[k][partner] + m[k][partner]) * unit
                if candidate != zero:
                    break
            # b_k <- b_k + unit * b_partner  (char != 2 guarantees one sign works)
            for t in range(n):
                m[k][t] = m[k][t] + m[partner][t] * unit
            for t in range(n):
                m[t][k] = m[t][k] + m[t][partner] * unit
        pivot = m[k][k]
        if pivot == zero:
            raise DegenerateFormError("could not produce a nonzero pivot")
        diag.append(pivot)
        row = m[k]
        support = [t for t in range(k + 1, n) if row[t]]
        for a, i in enumerate(support):
            factor = row[i] / pivot
            row_i = m[i]
            for t in support[a:]:
                row_i[t] = value = row_i[t] - factor * row[t]
                m[t][i] = value
    return diag


def reference_classify_diagonal(entries, field):
    """GW class over Q with the Hasse symbol at v as the product of
    hilbert_symbol over all pairs, and the discriminant factored from the
    product of the entries' classes."""
    classes = [SquareClass.of(Fraction(e)) for e in entries]
    reps = [c.rep for c in classes]
    disc = 1
    for r in reps:
        disc *= r
    places = {2, REAL_PLACE}
    for r in reps:
        places.update(p for p in factorize(abs(r)) if p != 2)
    hasse = []
    for v in sorted(places, key=lambda x: (isinstance(x, str), x)):
        s = 1
        for x, y in combinations(reps, 2):
            s *= hilbert_symbol(x, y, v)
        if s != 1:
            hasse.append((v, s))
    return ekl.gw.GWClass(
        field=field,
        diagonal=tuple(sorted(classes)),
        rank=len(classes),
        discriminant=SquareClass.of(disc),
        signature=sum(1 if r > 0 else -1 for r in reps),
        hasse=tuple(hasse),
    )


def random_diagonal(rng: random.Random) -> list:
    """Rank 0-16, both signs, a few square classes repeated, square
    factors and denominators, and at most one entry carrying a prime near
    10^6 (below and above the trial-division bound)."""
    pool = [
        rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 30, 105])
        for _ in range(rng.randint(1, 5))
    ]
    entries = [
        Fraction(rng.choice(pool) * rng.choice([1, 1, 4, 9]), rng.choice([1, 1, 4, 3]))
        # ranks 0-16, smaller ones more often: the oracle is quadratic
        for _ in range(min(rng.randint(0, 16), rng.randint(0, 16)))
    ]
    if entries and rng.random() < 0.15:
        entries[rng.randrange(len(entries))] *= rng.choice([999983, 1000003])
    return entries


# ---------------------------------------------------------------------------
# diagonalization

def test_diagonalize_hyperbolic_gram():
    diag = diagonalize(gram([[0, 1], [1, 0]]))
    assert sorted(squarefree_part(d) for d in diag) == [-2, 2]


def test_diagonalize_already_diagonal():
    assert diagonalize(gram([[1, 0], [0, -1]])) == [Fraction(1), Fraction(-1)]
    assert diagonalize(gram([[2]])) == [Fraction(2)]


def test_diagonalize_degenerate():
    with pytest.raises(DegenerateFormError):
        diagonalize(gram([[1, 0], [0, 0]]))
    with pytest.raises(DegenerateFormError):
        diagonalize(gram([[1, 1], [1, 1]]))


def test_diagonalize_zero_pivot_cancellation_corner():
    # the +1 basis change makes the pivot vanish; the -1 change must be used
    g = gram([[0, 1], [1, -2]])
    diag = diagonalize(g)
    prod = diag[0] * diag[1]
    assert squarefree_part(prod) == -1  # determinant class preserved


def test_congruence_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
            m[i][i] = Fraction(rng.randint(1, 5))
        try:
            before = classify(gram(m))
        except DegenerateFormError:
            continue
        # random unimodular T from elementary operations
        t = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(4):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                c = rng.randint(-2, 2)
                for k in range(n):
                    t[a][k] += c * t[b][k]
        tgt = [
            [
                sum(t[i][p] * m[p][q] * t[j][q] for p in range(n) for q in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        after = classify(gram(tgt))
        assert gw_equal(before, after)


# ---------------------------------------------------------------------------
# Hilbert symbols

def test_hilbert_trivial_first_argument():
    for place in (REAL_PLACE, 2, 3, 5, 7):
        for b in (2, -3, Fraction(5, 7)):
            assert hilbert_symbol(1, b, place) == 1


def test_hilbert_minus_one_infinity():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, 2, REAL_PLACE) == 1


def test_hilbert_minus_one_two_adic_oracle():
    # oracle: z^2 + x^2 + y^2 = 0 mod 8 has no solution with an odd coordinate
    solutions = [
        (x, y, z)
        for x in range(8)
        for y in range(8)
        for z in range(8)
        if (z * z - (-1) * x * x - (-1) * y * y) % 8 == 0
        and (x % 2 or y % 2 or z % 2)
    ]
    assert not solutions
    assert hilbert_symbol(-1, -1, 2) == -1


def brute_force_symbol_mod_p(a: int, b: int, p: int) -> int:
    """Oracle for odd p and p-unit arguments: solvability mod p suffices."""
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x, y, z) == (0, 0, 0):
                    continue
                if (z * z - a * x * x - b * y * y) % p == 0:
                    if x % p or y % p or z % p:
                        return 1
    return -1


def test_hilbert_odd_place_against_brute_force():
    rng = random.Random(9)
    for p in (3, 5, 7):
        for _ in range(15):
            a = rng.choice([u for u in range(1, p) ])
            b = rng.choice([u for u in range(1, p) ])
            assert hilbert_symbol(a, b, p) == 1  # unit-unit at odd p is always 1
        # ramified cases against the tame formula's meaning via Legendre symbols
        from ekl.scalar import legendre

        for u in range(1, p):
            assert hilbert_symbol(p, u, p) == legendre(u, p)


def test_hilbert_symmetry_and_bilinearity():
    rng = random.Random(29)
    places = [REAL_PLACE, 2, 3, 5, 7, 11]
    values = [-10, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10, Fraction(1, 2), Fraction(-3, 5)]
    for _ in range(60):
        a, b, c = rng.choice(values), rng.choice(values), rng.choice(values)
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)


def test_hilbert_reciprocity():
    rng = random.Random(15)
    for _ in range(200):
        a = Fraction(rng.randint(-60, 60) or 7, rng.randint(1, 40))
        b = Fraction(rng.randint(-60, 60) or -11, rng.randint(1, 40))
        places = {2, REAL_PLACE}
        for value in (a, b):
            sq = abs(squarefree_part(value))
            for p in factorize(sq):
                if p != 2:
                    places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_hilbert_invalid_place():
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 9)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, "nowhere")
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


# ---------------------------------------------------------------------------
# classification

def test_classify_hyperbolic():
    c = classify(gram([[0, 1], [1, 0]]))
    assert c.rank == 2 and c.signature == 0
    assert c.discriminant == SquareClass(-1)
    assert gw_equal(c, hyperbolic_class(QQ))


def test_classify_rank_one():
    c = classify(gram([[1]]))
    assert (c.rank, c.signature, c.discriminant) == (1, 1, SquareClass(1))


def test_classify_diag_1_2_m3():
    c = classify_diagonal([1, 2, -3], QQ)
    assert c.rank == 3 and c.signature == 1
    assert c.discriminant == SquareClass(-6)


def test_classify_fp():
    f5 = GF(5)
    c = classify_diagonal([f5.from_int(1), f5.from_int(2)], f5)
    assert c.rank == 2
    assert c.disc_legendre == -1  # 2 is not a square mod 5
    with pytest.raises(DegenerateFormError):
        classify_diagonal([f5.zero], f5)


def test_classify_diagonal_reads_rationals_over_fp():
    f7 = GF(7)
    c = classify_diagonal([Fraction(5, 2)], f7)  # 5/2 = 5 * 4 = 6, a non-square mod 7
    assert c.diagonal == (6,) and c.disc_legendre == -1
    assert classify_diagonal([Fraction(1, 2)], f7).diagonal == (4,)


def test_classify_diagonal_reads_ints_as_residues_over_fp(monkeypatch):
    f7 = GF(7)
    entries = [3, -1, 10, 6, 7 * 5 + 2, -15]
    expected = classify_diagonal([str(e) for e in entries], f7)  # each read by from_str
    monkeypatch.setattr(f7, "from_str", lambda text: pytest.fail(f"{text!r} read by from_str"))
    c = classify_diagonal(entries, f7)
    assert c == expected and c.diagonal == (2, 3, 3, 6, 6, 6)


@pytest.mark.parametrize(
    "read",
    [lambda e, f: classify_diagonal([e], f), lambda e, f: GramForm.from_rows([[e]], f)],
    ids=["classify_diagonal", "from_rows"],
)
@pytest.mark.parametrize(
    "entry, message",
    [(GF(5).from_int(3), "an element of F_5, not of F_7"), (Fraction(1, 7), "no residue modulo 7")],
    ids=["another-prime-field", "denominator-divisible-by-p"],
)
def test_fp_entries_outside_the_field_are_refused(read, entry, message):
    with pytest.raises(ValueError, match=message):
        read(entry, GF(7))


def test_gw_equal_examples():
    assert gw_equal(classify_diagonal([2, -2], QQ), classify_diagonal([1, -1], QQ))
    assert not gw_equal(classify_diagonal([1, 1], QQ), classify_diagonal([1, -1], QQ))
    assert not gw_equal(classify_diagonal([2], QQ), classify_diagonal([1], QQ))
    with pytest.raises(ValueError):
        gw_equal(classify_diagonal([1], QQ), classify_diagonal([GF(5).one], GF(5)))


def test_gw_equal_needs_hasse():
    # <3,3> and <1,1> agree in rank, signature, discriminant but differ at 3
    a = classify_diagonal([3, 3], QQ)
    b = classify_diagonal([1, 1], QQ)
    assert a.hasse_at(3) == -1
    assert not gw_equal(a, b)


def test_hyperbolic_absorption():
    rng = random.Random(21)
    h = hyperbolic_class(QQ)
    for _ in range(25):
        entries = [Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7])) for _ in range(rng.randint(1, 4))]
        c = classify_diagonal(entries, QQ)
        prod = gw_mul(h, c)
        expect = classify_diagonal([1, -1] * len(entries), QQ)
        assert gw_equal(prod, expect)


def test_a_plus_minus_a_is_hyperbolic():
    rng = random.Random(27)
    h = hyperbolic_class(QQ)
    for _ in range(40):
        a = Fraction(rng.randint(-30, 30) or 3, rng.randint(1, 20))
        c = classify_diagonal([a, -a], QQ)
        assert gw_equal(c, h)


def test_recognize_units_examples():
    # two hyperbolic planes twice: rank 4, signature 0, trivial invariants
    c = classify_diagonal([1, -1, 1, -1], QQ)
    assert recognize_units(c) == UnitsShape(2, 2, ())
    c2 = classify_diagonal([1, 1, 1, 1, -1, -1], QQ)
    assert recognize_units(c2) == UnitsShape(4, 2, ())


def test_recognize_units_residual():
    c = classify_diagonal([1, 1, 1, 1, -1, -1, -1, -1, 3, 3], QQ)
    shape = recognize_units(c)
    assert shape == UnitsShape(4, 4, (SquareClass(3), SquareClass(3)))
    # and the absorbing case: alpha in the trivial class collapses
    c2 = classify_diagonal([1, 1, 1, 1, -1, -1, -1, -1, 2, 2], QQ)
    assert recognize_units(c2) == UnitsShape(6, 4, ())


def test_recognize_units_odd_residual():
    c = classify_diagonal([1, 1, 5], QQ)
    shape = recognize_units(c)
    assert shape == UnitsShape(2, 0, (SquareClass(5),))
    c2 = classify_diagonal([3, 3, 3], QQ)
    assert recognize_units(c2) == UnitsShape(0, 0, (SquareClass(3),) * 3)


def test_recognize_units_negative_alpha():
    c = classify_diagonal([-3, -3, 1], QQ)
    shape = recognize_units(c)
    assert shape == UnitsShape(1, 0, (SquareClass(-3), SquareClass(-3)))


def test_units_roundtrip_random():
    rng = random.Random(33)
    for _ in range(40):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        r = rng.choice([0, 1, 2])
        alpha = rng.choice([3, -3, 5, 7, -7, 15])
        residual = (SquareClass(alpha),) * r
        c = units_class(p, q, residual, QQ)
        shape = recognize_units(c)
        assert shape is not None
        rebuilt = units_class(shape.ones, shape.minus_ones, shape.residual, QQ)
        assert gw_equal(rebuilt, c)
        assert shape.ones + shape.minus_ones + len(shape.residual) == c.rank
        assert len(shape.residual) <= r  # maximality


def test_recognize_units_over_fp_is_none():
    f5 = GF(5)
    c = classify_diagonal([f5.one, -f5.one], f5)
    assert recognize_units(c) is None
    assert render_class(c) == "⟨1,4⟩"
    # units_class builds the same class as the explicit diagonal over both fields
    assert hyperbolic_class(f5) == c
    assert hyperbolic_class(QQ) == classify_diagonal([Fraction(1), Fraction(-1)], QQ)


def test_render_class():
    assert render_class(classify_diagonal([0 + Fraction(1), Fraction(-1)], QQ)) == "1<1> + 1<-1>"
    assert render_class(classify_diagonal([2], QQ)) == "⟨2⟩"
    assert render_class(unit_class(Fraction(3), QQ)) == "⟨3⟩"


def test_gw_add():
    a = classify_diagonal([1], QQ)
    b = classify_diagonal([-1], QQ)
    assert gw_equal(gw_add(a, b), hyperbolic_class(QQ))


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        GramForm.from_rows([[0, 1], [2, 0]], QQ)


# ---------------------------------------------------------------------------
# fast paths against the reference oracles

def test_classify_diagonal_matches_pairwise_oracle():
    rng = random.Random(404)
    big_primes = set()
    for _ in range(1000):
        entries = random_diagonal(rng)
        expect = reference_classify_diagonal(entries, QQ)
        assert repr(classify_diagonal(entries, QQ)) == repr(expect)
        big_primes |= {v for v in (999983, 1000003) if any(sq.rep % v == 0 for sq in expect.diagonal)}
    assert big_primes == {999983, 1000003}


def test_classify_diagonal_factors_each_class_once(monkeypatch):
    calls = {"factorize": [], "hilbert": 0}
    real_factorize, real_hilbert = ekl.gw.factorize, ekl.gw._hilbert

    def counting_factorize(n, *args):
        calls["factorize"].append(n)
        return real_factorize(n, *args)

    def counting_hilbert(a, b, v):
        calls["hilbert"] += 1
        return real_hilbert(a, b, v)

    monkeypatch.setattr(ekl.gw, "factorize", counting_factorize)
    monkeypatch.setattr(ekl.gw, "_hilbert", counting_hilbert)
    entries = [Fraction(v) for v in (3, -3, 5, 15, 7) for _ in range(8)]
    c = classify_diagonal(entries, QQ)
    assert sorted(calls["factorize"]) == [3, 3, 5, 7, 15]
    places = {2, REAL_PLACE, 3, 5, 7}
    assert calls["hilbert"] <= 2 * 5 * len(places)
    assert repr(c) == repr(reference_classify_diagonal(entries, QQ))


def test_units_class_matches_explicit_diagonal():
    rng = random.Random(405)
    for _ in range(200):
        p, q, r = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        alpha = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 6, 7, 15, 999983, 2 * 1000003])
        c = units_class(p, q, (SquareClass(alpha),) * r, QQ)
        entries = [1] * p + [-1] * q + [alpha] * r
        assert repr(c) == repr(classify_diagonal(entries, QQ))
        if r <= 1 or abs(alpha) < 1000:  # the oracle factors the product alpha^r
            assert repr(c) == repr(reference_classify_diagonal(entries, QQ))


def random_symmetric(rng: random.Random, field) -> GramForm:
    """Sparse symmetric matrices with many zero diagonal entries; some start
    with a hyperbolic-type block [[0, a], [a, -2a]], where the basis change
    b_0 + b_1 is isotropic and the repair must take b_0 - b_1."""
    n = rng.randint(1, 8)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or rng.random() < 0.5:
                m[i][j] = m[j][i] = rng.choice([0, 0, 0, 1, -1, 2, -3, 5])
    if n >= 2 and rng.random() < 0.3:
        a = rng.choice([1, -1, 3])
        m[0][0], m[0][1], m[1][0], m[1][1] = 0, a, a, -2 * a
    return GramForm.from_rows(m, field)


def special_symmetric(n: int, field) -> list:
    """Hyperbolic blocks and anti-diagonal matrices of size n."""
    hyperbolic = [[1 if i ^ 1 == j else 0 for j in range(n)] for i in range(n)]
    anti = [[min(i, j) + 1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    twisted = [[-2 if i == j and i % 2 else (1 if i ^ 1 == j else 0) for j in range(n)] for i in range(n)]
    return [GramForm.from_rows(rows, field) for rows in (hyperbolic, anti, twisted)]


def outcome(fn, g):
    try:
        return fn(g)
    except DegenerateFormError as exc:
        return f"degenerate: {exc}"


def random_rational_symmetric(rng: random.Random) -> GramForm:
    """``random_symmetric`` over Q with non-integral entries mixed in."""
    m = [list(row) for row in random_symmetric(rng, QQ).entries]
    for i in range(len(m)):
        for j in range(i, len(m)):
            if m[i][j] and rng.random() < 0.5:
                m[i][j] = m[j][i] = Fraction(m[i][j], rng.choice([2, 3, 7, 12]))
    return GramForm.from_rows(m, QQ)


@pytest.mark.parametrize("kind", ["Q", "Q-rational", "F7", "F32003"])
def test_diagonalize_matches_two_pass_oracle(kind):
    """Against the two-pass oracle, and against the elimination on field
    values list for list and type for type (Fractions over Q)."""
    rng = random.Random(406)
    field = {"F7": GF(7), "F32003": F}.get(kind, QQ)
    if kind == "Q-rational":
        forms = [random_rational_symmetric(rng) for _ in range(300)]
    else:
        forms = [random_symmetric(rng, field) for _ in range(300)]
    forms += [g for n in (2, 4, 5, 6) for g in special_symmetric(n, field)]
    # b_0 + b_1 repairs the hyperbolic plane; in [[0, 1], [1, -2]] it is
    # isotropic and b_0 - b_1 is taken; the last two forms are degenerate
    rows = ([[0, 1], [1, 0]], [[0, 1], [1, -2]], [[1, 0], [0, 0]], [[1, 1], [1, 1]])
    forms += [GramForm.from_rows(r, field) for r in rows]
    degenerate = 0
    for g in forms:
        got = outcome(diagonalize, g)
        assert got == outcome(reference_diagonalize, g)
        expected = outcome(field_element_diagonalize, g)
        assert got == expected
        if isinstance(expected, str):
            degenerate += 1
        else:
            assert [type(d) for d in got] == [type(d) for d in expected]
            assert all(type(d) is (Fraction if field is QQ else PrimeFieldElement) for d in got)
    assert degenerate >= 2
    # both signs of the zero-pivot repair: b_0 + b_1, then b_0 - b_1
    assert diagonalize(gram([[0, 1], [1, 0]]))[0] == 2
    assert diagonalize(gram([[0, 1], [1, -2]]))[0] == -4


#: Denominators prime to 7 and 32003, up to about 2^92
DENOMINATORS = (1, 1, 2, 12, 10**9 + 7, (2**31 - 1) * (10**9 + 9), 2**61 - 1)


def random_block(rng: random.Random, n: int) -> list:
    """A symmetric block of rationals with large denominators, most diagonal
    entries zero (so the repair runs) and about half the others."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < (0.3 if i == j else 0.6):
                a = Fraction(rng.choice([1, -1, 2, -3, 5, 2**40 + 15]), rng.choice(DENOMINATORS))
                m[i][j] = m[j][i] = a
    return m


def permuted_block_sum(rng: random.Random, blocks: list) -> list:
    """The orthogonal sum of the blocks, its indices permuted at random."""
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        at += len(b)
    order = list(range(n))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


@pytest.mark.parametrize("field", [QQ, GF(7), F], ids=["Q", "F7", "F32003"])
def test_diagonalize_by_components_matches_the_oracles(field):
    """The component split and the elimination (Bareiss over Q) against both
    oracles, which eliminate the whole matrix on field values: the same
    diagonal in index order, or the same DegenerateFormError."""
    rng = random.Random(26)
    forms = []
    for _ in range(150):
        blocks = [random_block(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:  # a degenerate component
            blocks.append(rng.choice([[[1, 1], [1, 1]], [[0, 0], [0, 0]], [[0]], [[0, 3, 0], [3, 0, 0], [0, 0, 0]]]))
            rng.shuffle(blocks)
        forms.append(GramForm.from_rows(permuted_block_sum(rng, blocks), field))
    # a kernel block with a scale, as ``degree._split_form`` hands it over
    scale = Fraction(-3, 10**9 + 7) if field is QQ else 5
    rows = ([[0, 2, 0], [2, 0, 0], [0, 0, 3]], [[3, 0], [0, 0]], [[0, 4, 1], [4, 0, 0], [1, 0, 0]])
    forms += [GramForm(r, field, scale) for r in rows]
    degenerate = repaired = split = 0
    for g in forms:
        got = outcome(diagonalize, g)
        assert got == outcome(field_element_diagonalize, g)
        assert got == outcome(reference_diagonalize, g)
        degenerate += isinstance(got, str)
        repaired += any(not g.entries[i][i] for i in range(g.dimension))
        split += len(ekl.gw._components(g.entries)) > 1
        if not isinstance(got, str):
            assert all(type(d) is (Fraction if field is QQ else PrimeFieldElement) for d in got)
    assert degenerate >= 10 and repaired >= 100 and split >= 80


def test_components_are_the_permuted_blocks():
    rng = random.Random(5)
    blocks = [[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]], [[Fraction(2)]], [[Fraction(0), Fraction(1, 3)], [Fraction(1, 3), Fraction(0)]]]
    m = permuted_block_sum(rng, blocks)
    parts = ekl.gw._components(m)
    assert sorted(map(len, parts)) == [1, 2, 2]
    assert sorted(i for part in parts for i in part) == list(range(5))
    assert all(part == sorted(part) for part in parts)
    # a path through the indices joins everything
    path = [[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)]
    assert ekl.gw._components(path) == [[0, 1, 2, 3]]


def test_bareiss_pivots_are_ratios_of_leading_minors():
    # [[2/3, 1], [1, 5]]: L = 3, L * m = [[2, 3], [3, 15]], D_1 = 2, D_2 = 21,
    # so the pivots are 2/3 and 21 / (2 * 3) = 7/2
    assert ekl.gw._bareiss_pivots([[Fraction(2, 3), 1], [1, 5]]) == [Fraction(2, 3), Fraction(7, 2)]
    # the repair b_0 <- b_0 + b_1 of [[0, 1], [1, 0]] gives [[2, 1], [1, 0]]
    assert ekl.gw._bareiss_pivots([[0, 1], [1, 0]]) == [2, Fraction(-1, 2)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_Sn_full(3),
        lambda: build_Sn_full(4),
        lambda: build_typeA_partial([2, 2]),
        lambda: build_typeA_partial([3, 2]),
        lambda: build_typeBC_full(2),
        lambda: build_D_odd_partial(2),
        lambda: build_D_full(3),
    ],
    ids=["Sn3", "Sn4", "A22", "A32", "B2", "Dodd2", "Dfull3"],
)
def test_ladder_gram_diagonal_matches_oracles(build):
    res = ekl_degree(build().map)
    g = GramForm.from_rows(res.gram, res.quotient.field)
    diag = diagonalize(g)
    assert diag == reference_diagonalize(g)
    assert repr(res.gw_class) == repr(reference_classify_diagonal(diag, QQ))
