import itertools

import pytest

import ekl.cli
import ekl.quotmap
import ekl.weyl
from weyl_perms import (
    WeylElement,
    _coroot_pairings,
    in_parabolic as reference_in_parabolic,
    is_central_longest as reference_is_central_longest,
    longest_element as reference_longest_element,
    mulclose,
    parabolic_subgroup_order,
    perm_root_system,
    reduced_word,
    reference_aP,
    reference_min_coset_reps,
    tree_walk_reps,
    walked_weight,
    word_element,
)

from ekl.weyl import (
    MAX_POSITIVE_ROOTS,
    EnumerationBudgetError,
    ParabolicSpec,
    aP_formula_typeA,
    block_parabolic,
    build_root_system,
    cartan_matrix,
    classify_subdiagram,
    compute_aP,
    enum_budget,
    in_parabolic,
    is_central_longest,
    longest_element,
    min_coset_reps,
    parabolic_order_formula,
    parabolic_type_name,
    weyl_order,
)


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


# every root system of rank at most 8
SMALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(label, n) for label in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


# ---------------------------------------------------------------------------
# root systems

def test_positive_root_counts():
    assert build_root_system("A", 3).npos == 6
    assert build_root_system("D", 5).npos == 20
    assert build_root_system("E", 6).npos == 36
    assert build_root_system("B", 3).npos == 9
    assert build_root_system("C", 4).npos == 16
    assert build_root_system("F", 4).npos == 24
    assert build_root_system("G", 2).npos == 6


@pytest.mark.parametrize("label, rank", SMALL_TYPES)
def test_closed_form_root_count_matches_the_root_closure(label, rank):
    # perm_root_system closes the simple roots under the reflections and
    # asserts the closed-form count
    assert len(perm_root_system(label, rank).roots) == 2 * build_root_system(label, rank).npos


def test_invalid_type_pairs():
    for label, rank in (("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("Z", 4)):
        with pytest.raises(ValueError):
            build_root_system(label, rank)


def test_simple_reflections_permute_roots():
    rs = perm_root_system("B", 3)
    size = 2 * rs.npos
    for gen in rs.gens:
        assert sorted(gen) == list(range(size))
    # each simple reflection flips exactly its own simple root among positives
    for i, gen in enumerate(rs.gens):
        flipped = [k for k in range(rs.npos) if gen[k] >= rs.npos]
        assert flipped == [rs.simple_positions[i]]


def test_group_orders_by_enumeration():
    for label, rank in (("A", 3), ("B", 3), ("D", 4), ("G", 2)):
        rs = perm_root_system(label, rank)
        gens = [rs.simple_reflection(i) for i in rs.nodes]
        assert len(mulclose(rs, gens)) == weyl_order(label, rank)


def test_d3_equals_a3():
    d3 = perm_root_system("D", 3)
    assert d3.npos == 6
    gens = [d3.simple_reflection(i) for i in d3.nodes]
    assert len(mulclose(d3, gens)) == 24


def test_large_root_systems_up_to_the_bound():
    for label, rank in (("A", 16), ("B", 12), ("C", 12), ("D", 12), ("D", 13)):
        rs = build_root_system(label, rank)
        assert len(longest_element(rs)) == rs.npos
    # A361 and B/C/D256 are the largest of their types within the bound
    for label, rank in (("A", 361), ("B", 256), ("C", 256), ("D", 256)):
        rs = build_root_system(label, rank)
        assert rs.npos <= MAX_POSITIVE_ROOTS
        assert len(longest_element(rs)) == rs.npos
    for label, rank in (("A", 362), ("B", 257), ("C", 257), ("D", 257), ("A", 100000)):
        with pytest.raises(ValueError, match=f"{label}{rank} has .* at most 65536 are supported"):
            build_root_system(label, rank)


# ---------------------------------------------------------------------------
# longest element

def test_longest_element_lengths():
    assert longest_element(build_root_system("A", 1)) == (1,)
    assert len(longest_element(build_root_system("D", 5))) == 20  # n^2 - n for n = 5
    for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                        ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("F", 4), ("G", 2)):
        rs = perm_root_system(label, rank)
        w0 = word_element(rs, longest_element(build_root_system(label, rank)))
        assert w0.length == rs.npos
        assert (w0 * w0).is_identity()


@pytest.mark.parametrize("label, rank", SMALL_TYPES)
def test_longest_word_and_iota_match_the_oracle(label, rank):
    rs = build_root_system(label, rank)
    oracle = perm_root_system(label, rank)
    w0 = reference_longest_element(oracle)
    word = longest_element(rs)
    assert len(word) == oracle.npos
    assert word_element(oracle, word) == w0
    # w0(alpha_k) = -alpha_iota(k)
    for k, pos in zip(rs.nodes, oracle.simple_positions):
        assert w0.perm[pos] == oracle.simple_positions[rs.iota[k - 1] - 1] + oracle.npos
    assert is_central_longest(rs) == reference_is_central_longest(oracle)


def test_centrality_table():
    assert is_central_longest(build_root_system("B", 2))
    assert not is_central_longest(build_root_system("A", 2))
    assert not is_central_longest(build_root_system("E", 6))
    assert not is_central_longest(build_root_system("D", 5))
    assert not is_central_longest(build_root_system("D", 7))
    for label, rank in (("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                        ("D", 6), ("F", 4), ("G", 2), ("E", 7), ("E", 8)):
        assert is_central_longest(build_root_system(label, rank)), (label, rank)


def test_iota_is_the_diagram_automorphism():
    assert build_root_system("A", 4).iota == (4, 3, 2, 1)
    assert build_root_system("D", 5).iota == (2, 1, 3, 4, 5)
    assert build_root_system("D", 13).iota == (2, 1) + tuple(range(3, 14))
    assert build_root_system("E", 6).iota == (6, 2, 5, 4, 3, 1)


def test_d_odd_longest_word_conjugation():
    # for odd n the longest word swaps the fork nodes and fixes the chain
    rs = perm_root_system("D", 5)
    w0 = word_element(rs, longest_element(build_root_system("D", 5)))
    s = [rs.simple_reflection(i) for i in rs.nodes]
    conj = lambda i: w0 * s[i - 1] * w0.inverse()
    assert conj(1) == s[2 - 1]
    assert conj(2) == s[1 - 1]
    for i in range(3, 6):
        assert conj(i) == s[i - 1]


# ---------------------------------------------------------------------------
# cosets and parabolic membership

def test_min_coset_reps_counts():
    e6 = build_root_system("E", 6)
    reps = min_coset_reps(e6, ParabolicSpec.keep([2, 3, 4, 5, 6]))
    assert len(reps) == 27  # 51840 / 1920

    a3 = build_root_system("A", 3)
    reps = min_coset_reps(a3, ParabolicSpec.keep([1, 3]))
    assert len(reps) == 6  # 24 / 4

    a2 = build_root_system("A", 2)
    reps = min_coset_reps(a2, ParabolicSpec.keep([]))
    assert len(reps) == 6  # the whole group


def test_orbit_weights_cover_the_group_by_cosets():
    # w.lambda is constant exactly on the cosets w W_P, and the shortest
    # element of each coset is the reference representative
    a3 = build_root_system("A", 3)
    oracle = perm_root_system("A", 3)
    kept = (1, 3)
    p = ParabolicSpec.keep(kept)
    whole = mulclose(oracle, [oracle.simple_reflection(i) for i in oracle.nodes])
    fibres = {}
    for perm in whole:
        fibres.setdefault(tuple(walked_weight(oracle, perm, kept)), []).append(perm)
    assert sorted(fibres) == sorted(map(tuple, min_coset_reps(a3, p)))
    assert all(len(fibre) == 4 for fibre in fibres.values())  # |W_P|
    shortest = {min(fibre, key=oracle.length_of) for fibre in fibres.values()}
    assert shortest == {rep.perm for rep in reference_min_coset_reps(oracle, p)}


# (type, rank, kept nodes, a_P): non-simply-laced B, C, F4 and G2, where
# coroot pairings differ from root coefficients; A, D odd and E6, where iota
# is not the identity; E7; empty parabolics; a_P of 2, 3, 6 and 24
ORACLE_CASES = [
    ("A", 3, (), 0),
    ("A", 4, (1, 3), 2),
    ("A", 5, (1, 3, 5), 6),
    ("A", 5, (1, 2, 4, 5), 0),
    ("A", 7, (1, 3, 5, 7), 24),
    ("B", 3, (), 0),
    ("B", 3, (1,), 0),
    ("B", 4, (2, 3, 4), 0),
    ("C", 3, (2,), 0),
    ("C", 4, (1, 4), 0),
    ("F", 4, (), 0),
    ("F", 4, (1, 2, 3), 0),
    ("F", 4, (2, 3), 0),
    ("G", 2, (), 0),
    ("G", 2, (1,), 0),
    ("G", 2, (2,), 0),
    ("D", 4, (1,), 0),
    ("D", 5, (1, 2, 3, 4), 2),
    ("D", 5, (3, 4, 5), 0),
    ("D", 7, (1, 2, 3, 4, 5, 6), 2),
    ("E", 6, (2, 3, 4, 5, 6), 3),
    ("E", 6, (2, 3, 4, 5), 6),
    ("E", 6, (1, 3, 5, 6), 0),
    ("E", 7, (1, 2, 3, 4, 5, 6), 0),
    ("E", 7, (2, 3, 4, 5, 6, 7), 0),
]


@pytest.mark.parametrize("label, rank, kept, aP", ORACLE_CASES)
def test_orbit_walk_matches_reference(label, rank, kept, aP):
    rs = build_root_system(label, rank)
    oracle = perm_root_system(label, rank)
    p = ParabolicSpec.keep(kept)
    reps = min_coset_reps(rs, p)
    reference = reference_min_coset_reps(oracle, p)
    length = {tuple(walked_weight(oracle, r.perm, kept)): r.length for r in reference}
    assert sorted(map(tuple, reps)) == sorted(length)
    depths = [length[tuple(mu)] for mu in reps]
    assert depths == sorted(depths)
    assert compute_aP(rs, p, method="enumerate") == reference_aP(oracle, p) == aP


@pytest.mark.parametrize("label, rank, kept, aP", ORACLE_CASES)
def test_w0_reverses_the_coset_levels(label, rank, kept, aP):
    # w0 sends the minimal representative of length l to one of length
    # N - N_P - l, so the level sizes are palindromic and every fixed coset
    # sits on the middle level
    rs = build_root_system(label, rank)
    oracle = perm_root_system(label, rank)
    p = ParabolicSpec.keep(kept)
    length = {
        tuple(walked_weight(oracle, r.perm, kept)): r.length
        for r in reference_min_coset_reps(oracle, p)
    }
    top = max(length.values())  # N - N_P
    reps = min_coset_reps(rs, p)
    levels = [min_coset_reps(rs, p, length=k) for k in range(top + 1)]
    for k, level in enumerate(levels):
        assert level == [mu for mu in reps if length[tuple(mu)] == k]
    sizes = [len(level) for level in levels]
    assert sizes == sizes[::-1]
    fixed = [mu for mu in reps if all(mu[k] == -mu[j - 1] for k, j in enumerate(rs.iota))]
    assert len(fixed) == aP
    assert all(2 * length[tuple(mu)] == top for mu in fixed)
    for k in (-1, top + 1):
        with pytest.raises(ValueError, match=f"no coset of length {k}"):
            min_coset_reps(rs, p, length=k)


def test_a_walk_that_ends_before_its_level_is_an_arithmetic_error(monkeypatch):
    # with N_P read as 0, A3 keep {1, 3} asks for level 6 of a walk of 0 .. 4
    monkeypatch.setattr(ekl.weyl, "_parabolic", lambda *key: ((), 4, 0))
    with pytest.raises(ArithmeticError, match="ended at length 4, before 6"):
        min_coset_reps(build_root_system("A", 3), ParabolicSpec.keep([1, 3]), length=6)


# every kept-node subset of these is walked both ways
FIRST_NEGATIVE_TYPES = (
    [("A", n) for n in range(1, 6)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(3, 6)]
    + [("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
)


@pytest.mark.parametrize("label, rank", FIRST_NEGATIVE_TYPES)
def test_first_negative_walk_equals_the_tree_walk(label, rank):
    rs = build_root_system(label, rank)
    for size in range(rank + 1):
        for kept in itertools.combinations(rs.nodes, size):
            p = ParabolicSpec.keep(kept)
            reps = tree_walk_reps(rs, p)
            assert min_coset_reps(rs, p) == reps
            if p.is_proper(rs):
                self_dual = sum(
                    all(mu[k] == -mu[j - 1] for k, j in enumerate(rs.iota)) for mu in reps
                )
                assert compute_aP(rs, p, method="enumerate") == self_dual


@pytest.mark.parametrize("label, rank", FIRST_NEGATIVE_TYPES)
def test_orbit_coordinates_fit_the_packed_fields(label, rank):
    # with no node kept, lambda_P = rho gives the largest coordinates: the
    # height h - 1 of the highest coroot, for h = 2N / rank (G2: 5, B/C_n: 2n - 1)
    rs = build_root_system(label, rank)
    largest = max(abs(m) for mu in tree_walk_reps(rs, ParabolicSpec.keep([])) for m in mu)
    assert largest == 2 * rs.npos // rank - 1
    assert largest <= 2 ** (ekl.weyl._field_width(rs) - 1) - 1


# the degrees of the basic invariants of each irreducible Weyl group
# (Humphreys, *Reflection Groups and Coxeter Groups*, section 3.7)
DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "E": lambda n: {
        6: [2, 5, 6, 8, 9, 12],
        7: [2, 6, 8, 10, 12, 14, 18],
        8: [2, 8, 12, 14, 18, 20, 24, 30],
    }[n],
    "F": lambda n: [2, 6, 8, 12],
    "G": lambda n: [2, 6],
}


def coset_level_sizes(rs, p):
    """The coefficients of W(q) / W_P(q) = prod [d_i]_q / prod [d_j^P]_q,
    [d]_q = 1 + q + ... + q^(d-1), over the degrees of W and of the
    components of W_P: entry k counts the cosets whose minimal
    representative has length k.  No orbit is walked."""
    sizes = [1]
    for d in DEGREES[rs.type_label](rs.rank):
        sizes = [sum(sizes[max(k - d + 1, 0) : k + 1]) for k in range(len(sizes) + d - 1)]
    for label, rank in classify_subdiagram(rs, p.kept_nodes):
        for d in DEGREES[label](rank):
            quotient: list[int] = []
            for k in range(len(sizes) - d + 1):
                quotient.append(sizes[k] - sum(quotient[max(k - d + 1, 0) : k]))
            product = [sum(quotient[max(k - d + 1, 0) : k + 1]) for k in range(len(sizes))]
            assert product == sizes, f"[{d}]_q does not divide the series"
            sizes = quotient
    return sizes


@pytest.mark.parametrize("label, rank", FIRST_NEGATIVE_TYPES)
def test_level_sizes_are_the_coefficients_of_the_coset_poincare_polynomial(label, rank):
    rs = build_root_system(label, rank)
    for size in range(rank + 1):
        for kept in itertools.combinations(rs.nodes, size):
            p = ParabolicSpec.keep(kept)
            expected = coset_level_sizes(rs, p)
            assert sum(expected) == rs.order // parabolic_order_formula(rs, p)
            walked = [len(min_coset_reps(rs, p, length=k)) for k in range(len(expected))]
            assert walked == expected, kept


# the weyl-cosets benchmark members: (type, rank, flag, nodes, cosets)
WEYL_COSET_MEMBERS = [
    ("A", 5, "keep", (1,), 360),
    ("A", 6, "keep", (1,), 2520),
    ("A", 6, "keep", (1, 3, 5), 630),
    ("A", 7, "keep", (1, 3, 5, 7), 2520),
    ("A", 7, "keep", (1, 4, 7), 5040),
    ("A", 8, "keep", (1, 3, 5, 7), 22680),
    ("B", 5, "keep", (1,), 1920),
    ("B", 6, "keep", (1,), 23040),
    ("D", 6, "keep", (1,), 11520),
    ("D", 6, "keep", (1, 3), 3840),
    ("E", 6, "keep", (1, 3), 8640),
    ("E", 6, "remove", (1,), 27),
    ("E", 6, "remove", (1, 6), 270),
]


@pytest.mark.parametrize("label, rank, flag, nodes, cosets", WEYL_COSET_MEMBERS)
def test_middle_level_size_of_the_benchmark_members(label, rank, flag, nodes, cosets):
    rs = build_root_system(label, rank)
    p = ParabolicSpec.keep(nodes) if flag == "keep" else ParabolicSpec.remove(rs, nodes)
    expected = coset_level_sizes(rs, p)
    assert sum(expected) == cosets
    middle = (len(expected) - 1) // 2
    assert len(min_coset_reps(rs, p, length=middle)) == expected[middle]
    if (label, rank, nodes) == ("A", 8, (1, 3, 5, 7)):
        assert (middle, expected[middle]) == (16, 1864)
    if (label, rank, nodes) == ("B", 6, (1,)):
        assert (middle, expected[middle]) == (17, 1605)


def counted_classifications(monkeypatch) -> list:
    """The kept-node sets ``ekl.weyl.classify_subdiagram`` is called on from
    now, with the cache of classified parabolics emptied first."""
    calls: list = []
    real = ekl.weyl.classify_subdiagram

    def counting(rs, kept):
        calls.append(kept)
        return real(rs, kept)

    monkeypatch.setattr(ekl.weyl, "classify_subdiagram", counting)
    ekl.weyl._parabolic.cache_clear()
    return calls


def test_compute_aP_classifies_the_parabolic_once(monkeypatch):
    calls = counted_classifications(monkeypatch)
    e6 = build_root_system("E", 6)
    p = ParabolicSpec.remove(e6, [1, 6])
    assert compute_aP(e6, p, method="enumerate") == 6
    assert parabolic_order_formula(e6, p) == 192 and parabolic_type_name(e6, p) == "D4"
    assert len(calls) == 1


def test_an_op_classifies_the_parabolic_once(monkeypatch, capsys):
    calls = counted_classifications(monkeypatch)
    argv = ["weyl", "ap", "--type", "E6", "--remove", "1,6", "--method", "enumerate"]
    assert ekl.cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "parabolic: keep [2, 3, 4, 5] (D4), order 192",
        "cosets: 270",
        "a_P: 6",
    ]
    assert len(calls) == 1
    calls.clear()
    shape = ekl.quotmap.expected_gw(ekl.quotmap.build_typeA_partial([2, 2, 1]))
    assert (shape.ones, shape.minus_ones) == (16, 14)
    assert len(calls) == 1


@pytest.mark.parametrize("label, rank, kept, aP", ORACLE_CASES)
def test_coroot_pairings_give_the_orbit_weight(label, rank, kept, aP):
    # mu_k = <w.lambda, alpha_k^vee> = <lambda, (w^-1 alpha_k)^vee>, which in
    # B, C, F4 and G2 differs from the root coefficients of w^-1 alpha_k
    oracle = perm_root_system(label, rank)
    pairing = _coroot_pairings(label, rank, frozenset(kept))
    for rep in reference_min_coset_reps(oracle, ParabolicSpec.keep(kept)):
        mu = [pairing[rep.perm.index(pos)] for pos in oracle.simple_positions]
        assert mu == walked_weight(oracle, rep.perm, kept)


def test_order_product_invariant():
    for label, rank, kept in (("A", 3, [1, 3]), ("B", 3, [1, 2]), ("D", 4, [2, 3, 4]),
                              ("E", 6, [2, 3, 4, 5, 6])):
        rs = build_root_system(label, rank)
        p = ParabolicSpec.keep(kept)
        reps = min_coset_reps(rs, p)
        assert len(reps) * parabolic_subgroup_order(perm_root_system(label, rank), p) == weyl_order(
            label, rank
        )


def test_in_parabolic_examples():
    d4 = build_root_system("D", 4)
    p = ParabolicSpec.keep([1, 2])
    assert in_parabolic(d4, (), p)
    assert in_parabolic(d4, (1,), p)
    assert in_parabolic(d4, (1, 2, 1), p)
    assert not in_parabolic(d4, (3,), p)
    assert in_parabolic(d4, (3, 3), p)
    e6 = build_root_system("E", 6)
    for node in e6.nodes:
        assert not in_parabolic(e6, longest_element(e6), ParabolicSpec.remove(e6, [node]))
    with pytest.raises(ValueError, match="word letters outside the diagram"):
        in_parabolic(d4, (0,), p)


def test_in_parabolic_exhaustive_a3():
    a3 = build_root_system("A", 3)
    oracle = perm_root_system("A", 3)
    p = ParabolicSpec.keep([1, 2])
    members = mulclose(oracle, [oracle.simple_reflection(1), oracle.simple_reflection(2)])
    whole = mulclose(oracle, [oracle.simple_reflection(i) for i in oracle.nodes])
    for perm in whole:
        assert in_parabolic(a3, reduced_word(oracle, perm), p) == (perm in members)


# ---------------------------------------------------------------------------
# a_P

def test_aP_known_values_e6():
    e6 = build_root_system("E", 6)
    assert compute_aP(e6, ParabolicSpec.remove(e6, [1])) == 3
    assert compute_aP(e6, ParabolicSpec.remove(e6, [1, 6])) == 6
    for node in (2, 3, 4, 5):
        assert compute_aP(e6, ParabolicSpec.remove(e6, [node])) == 0
    assert compute_aP(e6, ParabolicSpec.remove(e6, [6])) == 3


def test_aP_d_odd():
    d5 = build_root_system("D", 5)
    assert compute_aP(d5, ParabolicSpec.keep([1, 2, 3, 4])) == 2
    d7 = build_root_system("D", 7)
    assert compute_aP(d7, ParabolicSpec.keep([1, 2, 3, 4, 5, 6])) == 2


def test_aP_d_odd_other_maximals_vanish():
    d5 = build_root_system("D", 5)
    for node in (1, 2, 3, 4):
        p = ParabolicSpec.remove(d5, [node])
        assert compute_aP(d5, p, method="enumerate") == 0


def test_aP_central_shortcut_vs_enumeration():
    for label, rank in (("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                        ("D", 4), ("D", 6), ("F", 4), ("G", 2)):
        rs = build_root_system(label, rank)
        for node in rs.nodes:
            p = ParabolicSpec.remove(rs, [node])
            assert compute_aP(rs, p, method="auto") == 0
            assert compute_aP(rs, p, method="enumerate") == 0


def test_aP_e7_e8_shortcut():
    for label, rank in (("E", 7), ("E", 8)):
        rs = build_root_system(label, rank)
        for node in rs.nodes:
            assert compute_aP(rs, ParabolicSpec.remove(rs, [node])) == 0


def test_aP_requires_proper():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        compute_aP(a2, ParabolicSpec.keep([1, 2]))


def test_aP_formula_examples():
    assert aP_formula_typeA([2, 2]) == 2
    assert aP_formula_typeA([3, 1]) == 0
    assert aP_formula_typeA([1, 1]) == 0
    assert aP_formula_typeA([1, 1, 1]) == 0
    assert aP_formula_typeA([1, 1, 1, 1]) == 0
    assert aP_formula_typeA([2, 2, 1]) == 2
    assert aP_formula_typeA([4]) == 1
    assert aP_formula_typeA([5]) == 1
    assert aP_formula_typeA([4, 2]) == 3  # 3!/(2!*1!)
    assert aP_formula_typeA([2, 2, 2]) == 6
    with pytest.raises(ValueError):
        aP_formula_typeA([])
    with pytest.raises(ValueError):
        aP_formula_typeA([0, 2])


def test_formula_vs_enumeration_small_n():
    for n in range(2, 6):
        rs = build_root_system("A", n - 1)
        for blocks in compositions(n):
            if blocks == (n,):
                continue
            p = block_parabolic("A", n - 1, blocks)
            assert compute_aP(rs, p, method="enumerate") == aP_formula_typeA(blocks), blocks


def test_aP_equals_whole_group_count_over_subgroup_order():
    # counting over minimal representatives must match the whole-group
    # count #{w : w^-1 w0 w in W_P} divided by |W_P|, with the library's
    # and the oracle's membership tests agreeing on every conjugate
    cases = [("A", 3, [1, 3], 4), ("D", 5, [1, 2, 3, 4], 192)]
    for label, rank, kept, sub_order in cases:
        rs = build_root_system(label, rank)
        oracle = perm_root_system(label, rank)
        p = ParabolicSpec.keep(kept)
        w0 = reference_longest_element(oracle)
        whole = mulclose(oracle, [oracle.simple_reflection(i) for i in oracle.nodes])
        count = 0
        for perm in whole:
            w = WeylElement(oracle, perm)
            conjugate = w.inverse() * w0 * w
            member = reference_in_parabolic(conjugate, p)
            assert in_parabolic(rs, reduced_word(oracle, conjugate.perm), p) == member
            count += member
        assert count == compute_aP(rs, p, method="enumerate") * sub_order


def test_aP_enumerate_count_e6():
    e6 = build_root_system("E", 6)
    p = ParabolicSpec.remove(e6, [1])
    assert compute_aP(e6, p, method="enumerate") == 3


def test_remove_rejects_unknown_nodes():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        ParabolicSpec.remove(a3, [7])


def test_budget_enforced():
    a3 = build_root_system("A", 3)
    with pytest.raises(EnumerationBudgetError):
        min_coset_reps(a3, ParabolicSpec.keep([]), budget=5)
    oracle = perm_root_system("A", 3)
    with pytest.raises(EnumerationBudgetError):
        mulclose(oracle, [oracle.simple_reflection(i) for i in oracle.nodes], budget=5)


@pytest.mark.parametrize("label, rank, kept", [("A", 5, (1,)), ("E", 6, (2, 3, 4, 5, 6))])
def test_budget_boundary_is_the_coset_count(label, rank, kept):
    rs = build_root_system(label, rank)
    p = ParabolicSpec.keep(kept)
    cosets = rs.order // parabolic_order_formula(rs, p)
    with pytest.raises(EnumerationBudgetError, match=f"budget of {cosets - 1} elements"):
        compute_aP(rs, p, method="enumerate", budget=cosets - 1)
    reference = reference_aP(perm_root_system(label, rank), p)
    assert compute_aP(rs, p, method="enumerate", budget=cosets) == reference


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("EKL_ENUM_BUDGET", "3")
    a3 = build_root_system("A", 3)
    with pytest.raises(EnumerationBudgetError):
        min_coset_reps(a3, ParabolicSpec.keep([]))


@pytest.mark.parametrize("text", ["abc", "-1", "", "2.5"])
def test_malformed_budget_env_is_a_value_error(monkeypatch, text):
    monkeypatch.setenv("EKL_ENUM_BUDGET", text)
    with pytest.raises(ValueError, match="EKL_ENUM_BUDGET must be a non-negative integer"):
        enum_budget()
    assert enum_budget(7) == 7
    monkeypatch.setenv("EKL_ENUM_BUDGET", "0")
    assert enum_budget() == 0


# ---------------------------------------------------------------------------
# sub-diagram classification

def test_classify_subdiagram_e6():
    e6 = build_root_system("E", 6)
    assert classify_subdiagram(e6, [2, 3, 4, 5, 6]) == [("D", 5)]
    assert classify_subdiagram(e6, [2, 3, 4, 5]) == [("D", 4)]
    assert classify_subdiagram(e6, [1, 3, 4, 5, 6]) == [("A", 5)]
    assert sorted(classify_subdiagram(e6, [1, 3, 5, 6])) == [("A", 2), ("A", 2)]


def test_classify_subdiagram_bcf():
    f4 = build_root_system("F", 4)
    assert classify_subdiagram(f4, [1, 2, 3]) == [("B", 3)]
    assert classify_subdiagram(f4, [2, 3, 4]) == [("C", 3)]
    assert classify_subdiagram(f4, [1, 2, 3, 4]) == [("F", 4)]
    b4 = build_root_system("B", 4)
    assert classify_subdiagram(b4, [2, 3, 4]) == [("B", 3)]
    assert classify_subdiagram(b4, [1, 2, 3]) == [("A", 3)]
    g2 = build_root_system("G", 2)
    assert classify_subdiagram(g2, [1, 2]) == [("G", 2)]


def test_parabolic_order_formula_matches_enumeration():
    cases = [("E", 6, [2, 3, 4, 5, 6]), ("E", 6, [2, 3, 4, 5]), ("F", 4, [1, 2, 3]),
             ("F", 4, [2, 3, 4]), ("D", 5, [1, 2, 3, 4]), ("B", 4, [2, 3, 4])]
    for label, rank, kept in cases:
        rs = build_root_system(label, rank)
        p = ParabolicSpec.keep(kept)
        oracle_order = parabolic_subgroup_order(perm_root_system(label, rank), p)
        assert parabolic_order_formula(rs, p) == oracle_order


def test_parabolic_type_names():
    e6 = build_root_system("E", 6)
    assert parabolic_type_name(e6, ParabolicSpec.keep([2, 3, 4, 5, 6])) == "D5"
    assert parabolic_type_name(e6, ParabolicSpec.keep([])) == "trivial"


def test_cartan_matrices_sane():
    for label, rank in (("A", 2), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)):
        c = cartan_matrix(label, rank)
        for i in range(rank):
            assert c[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)
