import pytest

from ekl.weyl import (
    EnumerationBudgetError,
    ParabolicSpec,
    WeylElement,
    _compose,
    _coroot_pairings,
    aP_formula_typeA,
    build_root_system,
    cartan_matrix,
    classify_subdiagram,
    compute_aP,
    in_parabolic,
    is_central_longest,
    longest_element,
    min_coset_reps,
    mulclose,
    parabolic_order_formula,
    parabolic_subgroup_order,
    parabolic_type_name,
    typeA_parabolic_for_blocks,
    weyl_order,
)


def reference_min_coset_reps(rs, p):
    """Breadth-first search from the identity over the left weak order: w is
    minimal in w W_P iff w(alpha_j) > 0 for every kept node j, and the
    minimal representatives are closed downward, so each is s_i times a
    shorter one."""
    npos = rs.npos
    kept_positions = [rs.simple_positions[j - 1] for j in p.kept_nodes]
    identity = rs.identity_perm()
    reps = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for perm in frontier:
            for gen in rs.gens:
                cand = _compose(gen, perm)
                if rs.length_of(cand) != reps[perm] + 1 or cand in reps:
                    continue
                if all(cand[pos] < npos for pos in kept_positions):
                    reps[cand] = reps[perm] + 1
                    new.append(cand)
        frontier = new
    return [WeylElement(rs, b) for b in sorted(reps, key=lambda b: (reps[b], b))]


def reference_aP(rs, p):
    """#{w W_P : w^-1 w0 w in W_P} by the descent test of ``in_parabolic``."""
    w0 = longest_element(rs)
    return sum(in_parabolic(rep.inverse() * w0 * rep, p) for rep in reference_min_coset_reps(rs, p))


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


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


def test_invalid_type_pairs():
    for label, rank in (("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("Z", 4)):
        with pytest.raises(ValueError):
            build_root_system(label, rank)


def test_simple_reflections_permute_roots():
    rs = build_root_system("B", 3)
    size = 2 * rs.npos
    for gen in rs.gens:
        assert sorted(gen) == list(range(size))
    # each simple reflection flips exactly its own simple root among positives
    for i, gen in enumerate(rs.gens):
        flipped = [k for k in range(rs.npos) if gen[k] >= rs.npos]
        assert flipped == [rs.simple_positions[i]]


def test_group_orders_by_enumeration():
    for label, rank in (("A", 3), ("B", 3), ("D", 4), ("G", 2)):
        rs = build_root_system(label, rank)
        gens = [rs.simple_reflection(i) for i in rs.nodes]
        assert len(mulclose(rs, gens)) == weyl_order(label, rank)


def test_d3_equals_a3():
    d3 = build_root_system("D", 3)
    assert d3.npos == 6
    gens = [d3.simple_reflection(i) for i in d3.nodes]
    assert len(mulclose(d3, gens)) == 24


# ---------------------------------------------------------------------------
# longest element

def test_longest_element_lengths():
    a1 = build_root_system("A", 1)
    assert longest_element(a1).length == 1
    d5 = build_root_system("D", 5)
    assert longest_element(d5).length == 20  # n^2 - n for n = 5
    for label, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                        ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("F", 4), ("G", 2)):
        rs = build_root_system(label, rank)
        w0 = longest_element(rs)
        assert w0.length == rs.npos
        assert (w0 * w0).is_identity()


def test_centrality_table():
    assert is_central_longest(build_root_system("B", 2))
    assert not is_central_longest(build_root_system("A", 2))
    assert not is_central_longest(build_root_system("E", 6))
    assert not is_central_longest(build_root_system("D", 5))
    assert not is_central_longest(build_root_system("D", 7))
    for label, rank in (("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4),
                        ("D", 6), ("F", 4), ("G", 2), ("E", 7), ("E", 8)):
        assert is_central_longest(build_root_system(label, rank)), (label, rank)


def test_d_odd_longest_word_conjugation():
    # for odd n the longest word swaps the fork nodes and fixes the chain
    rs = build_root_system("D", 5)
    w0 = longest_element(rs)
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


def test_min_reps_are_minimal_and_cover():
    a3 = build_root_system("A", 3)
    p = ParabolicSpec.keep([1, 3])
    reps = min_coset_reps(a3, p)
    sub = mulclose(a3, [a3.simple_reflection(1), a3.simple_reflection(3)])

    cosets = set()
    for rep in reps:
        coset = frozenset(_compose(rep.perm, h) for h in sub)
        for h in sub:
            assert rep.length <= a3.length_of(_compose(rep.perm, h))
        cosets.add(coset)
    assert len(cosets) == 6
    assert sum(len(c) for c in cosets) == 24


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
    p = ParabolicSpec.keep(kept)
    reps = min_coset_reps(rs, p)
    assert [r.perm for r in reps] == [r.perm for r in reference_min_coset_reps(rs, p)]
    assert compute_aP(rs, p, method="enumerate") == reference_aP(rs, p) == aP


def walked_weight(rs, perm, kept):
    """w.lambda in omega-coordinates, applying the simple reflections of a
    reduced word of w to lambda one at a time: (s_k mu)_j = mu_j - mu_k C[j][k]."""
    mu = [0 if node in kept else 1 for node in rs.nodes]
    while perm != rs.identity_perm():
        # a right descent k (w(alpha_k) < 0) gives w = (w s_k) s_k
        k = next(k for k, pos in enumerate(rs.simple_positions) if perm[pos] >= rs.npos)
        mu = [m - mu[k] * rs.cartan[j][k] for j, m in enumerate(mu)]
        perm = _compose(perm, rs.gens[k])
    return mu


@pytest.mark.parametrize("label, rank, kept, aP", ORACLE_CASES)
def test_coroot_pairings_give_the_orbit_weight(label, rank, kept, aP):
    # mu_k = <w.lambda, alpha_k^vee> = <lambda, (w^-1 alpha_k)^vee>, which in
    # B, C, F4 and G2 differs from the root coefficients of w^-1 alpha_k
    rs = build_root_system(label, rank)
    pairing = _coroot_pairings(label, rank, frozenset(kept))
    for rep in min_coset_reps(rs, ParabolicSpec.keep(kept)):
        mu = [pairing[rep.perm.index(pos)] for pos in rs.simple_positions]
        assert mu == walked_weight(rs, rep.perm, kept)


def test_order_product_invariant():
    for label, rank, kept in (("A", 3, [1, 3]), ("B", 3, [1, 2]), ("D", 4, [2, 3, 4]),
                              ("E", 6, [2, 3, 4, 5, 6])):
        rs = build_root_system(label, rank)
        p = ParabolicSpec.keep(kept)
        reps = min_coset_reps(rs, p)
        assert len(reps) * parabolic_subgroup_order(rs, p) == weyl_order(label, rank)


def test_in_parabolic_examples():
    d4 = build_root_system("D", 4)
    p = ParabolicSpec.keep([1, 2])
    assert in_parabolic(d4.identity(), p)
    assert in_parabolic(d4.simple_reflection(1), p)
    assert not in_parabolic(d4.simple_reflection(3), p)
    e6 = build_root_system("E", 6)
    w0 = longest_element(e6)
    for node in e6.nodes:
        assert not in_parabolic(w0, ParabolicSpec.remove(e6, [node]))


def test_in_parabolic_exhaustive_a3():
    a3 = build_root_system("A", 3)
    p = ParabolicSpec.keep([1, 2])
    members = {w for w in mulclose(a3, [a3.simple_reflection(1), a3.simple_reflection(2)])}
    whole = mulclose(a3, [a3.simple_reflection(i) for i in a3.nodes])
    for perm in whole:
        w = WeylElement(a3, perm)
        assert in_parabolic(w, p) == (perm in members)


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
            p = typeA_parabolic_for_blocks(blocks)
            assert compute_aP(rs, p, method="enumerate") == aP_formula_typeA(blocks), blocks


def test_aP_equals_whole_group_count_over_subgroup_order():
    # counting over minimal representatives must match the whole-group
    # count #{w : w^-1 w0 w in W_P} divided by |W_P|
    cases = [("A", 3, [1, 3], 4), ("D", 5, [1, 2, 3, 4], 192)]
    for label, rank, kept, sub_order in cases:
        rs = build_root_system(label, rank)
        p = ParabolicSpec.keep(kept)
        w0 = longest_element(rs)
        whole = mulclose(rs, [rs.simple_reflection(i) for i in rs.nodes])
        count = 0
        for perm in whole:
            w = WeylElement(rs, perm)
            if in_parabolic(w.inverse() * w0 * w, p):
                count += 1
        assert count == compute_aP(rs, p, method="enumerate") * sub_order


def test_aP_enumerate_count_e6():
    e6 = build_root_system("E", 6)
    p = ParabolicSpec.remove(e6, [1])
    assert compute_aP(e6, p, method="enumerate") == 3


def test_root_count_limit():
    assert build_root_system("A", 15).npos == 120
    assert build_root_system("E", 8).npos == 120
    for label, rank in (("A", 16), ("B", 12), ("C", 12), ("D", 12)):
        with pytest.raises(ValueError, match=f"{label}{rank} has .* at most 256 roots"):
            build_root_system(label, rank)


def test_remove_rejects_unknown_nodes():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        ParabolicSpec.remove(a3, [7])


def test_budget_enforced():
    a3 = build_root_system("A", 3)
    with pytest.raises(EnumerationBudgetError):
        min_coset_reps(a3, ParabolicSpec.keep([]), budget=5)
    with pytest.raises(EnumerationBudgetError):
        mulclose(a3, [a3.simple_reflection(i) for i in a3.nodes], budget=5)


@pytest.mark.parametrize("label, rank, kept", [("A", 5, (1,)), ("E", 6, (2, 3, 4, 5, 6))])
def test_budget_boundary_is_the_coset_count(label, rank, kept):
    rs = build_root_system(label, rank)
    p = ParabolicSpec.keep(kept)
    cosets = rs.order // parabolic_order_formula(rs, p)
    with pytest.raises(EnumerationBudgetError, match=f"budget of {cosets - 1} elements"):
        compute_aP(rs, p, method="enumerate", budget=cosets - 1)
    assert compute_aP(rs, p, method="enumerate", budget=cosets) == reference_aP(rs, p)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("EKL_ENUM_BUDGET", "3")
    a3 = build_root_system("A", 3)
    with pytest.raises(EnumerationBudgetError):
        min_coset_reps(a3, ParabolicSpec.keep([]))


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
        assert parabolic_order_formula(rs, p) == parabolic_subgroup_order(rs, p)


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
