"""Weyl groups as permutations of the signed root list: the test oracle.

``ekl.weyl`` works on weights in omega-coordinates only.  This module keeps
an independent representation to check it against: the roots are closed
under the simple reflections in the simple-root basis, and each group
element is stored as its permutation of the full signed root list, packed
into ``bytes`` so that composition is a C-speed ``translate``.  Length is
the number of positive roots sent negative.  A ``bytes`` permutation
indexes at most 256 roots, so the oracle stops at A15, B/C11 and D11.

``reference_min_coset_reps`` finds the minimal coset representatives by a
breadth-first search over the weak order, and ``reference_aP`` counts the
self-dual cosets with the descent test of ``in_parabolic``; neither uses
weights.  ``tree_walk_reps`` is the weight walk that tries every positive
coordinate and scans the prefix of each candidate, sorting each level by
the node reflected at, against which ``ekl.weyl.min_coset_reps`` is
checked list for list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ekl.weyl import (
    EnumerationBudgetError,
    ParabolicSpec,
    RootSystem,
    _moves,
    _parabolic_weight,
    build_root_system,
    enum_budget,
)

_PAD = bytes(range(256))

#: Largest root count a ``bytes`` permutation can index.
MAX_ROOTS = len(_PAD)


def _compose(p: bytes, q: bytes) -> bytes:
    """(p o q)[i] = p[q[i]]."""
    return q.translate(p + _PAD[len(p):])


def _invert(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, v in enumerate(p):
        out[v] = i
    return bytes(out)


@dataclass(frozen=True)
class PermRootSystem:
    """The roots of ``system`` and its simple reflections as root permutations."""

    system: RootSystem
    roots: tuple[tuple[int, ...], ...]  # positives first, then their negatives
    npos: int
    simple_positions: tuple[int, ...]  # index of each simple root in ``roots``
    gens: tuple[bytes, ...]  # simple reflections as root permutations

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.system.nodes

    def identity_perm(self) -> bytes:
        return bytes(range(2 * self.npos))

    def identity(self) -> "WeylElement":
        return WeylElement(self, self.identity_perm())

    def simple_reflection(self, node: int) -> "WeylElement":
        return WeylElement(self, self.gens[node - 1])

    def length_of(self, perm: bytes) -> int:
        npos = self.npos
        return sum(1 for i in range(npos) if perm[i] >= npos)


class WeylElement:
    """A Weyl group element as its permutation of the signed root list."""

    __slots__ = ("system", "perm", "_length")

    def __init__(self, system: PermRootSystem, perm: bytes):
        self.system = system
        self.perm = perm
        self._length: int | None = None

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = self.system.length_of(self.perm)
        return self._length

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.system is not other.system:
            raise ValueError("elements of different Weyl groups")
        return WeylElement(self.system, _compose(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.system, _invert(self.perm))

    def is_identity(self) -> bool:
        return self.perm == self.system.identity_perm()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"<weyl element of length {self.length}>"


@lru_cache(maxsize=None)
def perm_root_system(type_label: str, rank: int) -> PermRootSystem:
    """Roots and simple reflections from the Cartan matrix, closed under
    the reflection orbit."""
    system = build_root_system(type_label, rank)
    cartan = system.cartan
    if 2 * system.npos > MAX_ROOTS:
        raise ValueError(
            f"{type_label}{rank} has {2 * system.npos} roots; the oracle stores "
            f"elements as bytes permutations of at most {MAX_ROOTS} roots"
        )
    n = rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def reflect(i: int, v: tuple[int, ...]) -> tuple[int, ...]:
        pairing = sum(cartan[i][j] * v[j] for j in range(n))
        return tuple(v[j] - pairing if j == i else v[j] for j in range(n))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                w = reflect(i, v)
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new

    positives = sorted(
        (r for r in roots if all(c >= 0 for c in r)), key=lambda r: (sum(r), r)
    )
    if len(positives) != system.npos or len(roots) != 2 * system.npos:
        raise AssertionError("root enumeration does not match the classification")
    ordered = positives + [tuple(-c for c in r) for r in positives]
    index = {r: i for i, r in enumerate(ordered)}
    gens = tuple(bytes(index[reflect(i, r)] for r in ordered) for i in range(n))
    simple_positions = tuple(index[s] for s in simple)
    return PermRootSystem(system, tuple(ordered), system.npos, simple_positions, gens)


def longest_element(rs: PermRootSystem) -> WeylElement:
    """Apply any length-increasing simple reflection until none remains."""
    npos = rs.npos
    perm = rs.identity_perm()
    while True:
        for i in range(rs.rank):
            # l(w s_i) > l(w) iff w(alpha_i) > 0
            if perm[rs.simple_positions[i]] < npos:
                perm = _compose(perm, rs.gens[i])
                break
        else:
            break
    w = WeylElement(rs, perm)
    if w.length != npos:
        raise AssertionError("longest element search terminated early")
    return w


def is_central_longest(rs: PermRootSystem) -> bool:
    """True iff the longest word acts as -1 on the root space, i.e. is central."""
    npos = rs.npos
    return longest_element(rs).perm == bytes(range(npos, 2 * npos)) + bytes(range(npos))


def in_parabolic(w: WeylElement, p: ParabolicSpec) -> bool:
    """Greedy left-descent reduction within the kept generators; w lies in
    W_P iff the reduction reaches the identity."""
    rs = w.system
    p.validate(rs.system)
    npos = rs.npos
    kept = sorted(p.kept_nodes)
    perm = w.perm
    inv = _invert(perm)
    while True:
        for j in kept:
            pos = rs.simple_positions[j - 1]
            if inv[pos] >= npos:  # l(s_j w) < l(w)
                gen = rs.gens[j - 1]
                perm = _compose(gen, perm)
                inv = _compose(inv, gen)
                break
        else:
            return perm == rs.identity_perm()


def mulclose(
    rs: PermRootSystem, gens: Sequence[WeylElement], budget: int | None = None
) -> set[bytes]:
    """Closure of the given elements under multiplication (as permutations)."""
    cap = enum_budget(budget)
    gen_perms = [g.perm for g in gens]
    seen = {rs.identity_perm()}
    frontier = list(seen)
    while frontier:
        new = []
        for perm in frontier:
            for g in gen_perms:
                cand = _compose(g, perm)
                if cand not in seen:
                    if len(seen) >= cap:
                        raise EnumerationBudgetError(
                            f"group enumeration exceeded the budget of {cap} elements"
                        )
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return seen


def parabolic_subgroup_order(
    rs: PermRootSystem, p: ParabolicSpec, budget: int | None = None
) -> int:
    """|W_P| by explicit closure of the kept simple reflections."""
    p.validate(rs.system)
    gens = [rs.simple_reflection(j) for j in sorted(p.kept_nodes)]
    return len(mulclose(rs, gens, budget))


@lru_cache(maxsize=None)
def _coroot_pairings(type_label: str, rank: int, kept: frozenset[int]) -> tuple[int, ...]:
    """<lambda, beta^vee> = 2 (lambda, beta) / |beta|^2 for every root beta,
    in ``roots`` order; lambda = sum of omega_i over the nodes i not kept,
    and (omega_i, alpha_j) = delta_ij |alpha_j|^2 / 2."""
    rs = perm_root_system(type_label, rank)
    system = rs.system
    scale = math.lcm(*(x.denominator for x in system.norms))
    d = [int(x * scale) for x in system.norms]  # |alpha_i|^2, scaled to integers
    # 2 (alpha_i, alpha_j) = d_i C[i][j]; 2 (lambda, alpha_i) = d_i off the kept nodes
    form = [[x * c for c in row] for x, row in zip(d, system.cartan)]
    lam = [0 if i in kept else x for i, x in zip(system.nodes, d)]
    pairings = []
    for root in rs.roots:
        norm2 = sum(c * sum(a * b for a, b in zip(row, root)) for c, row in zip(root, form))
        pairings.append(Fraction(2 * sum(c * x for c, x in zip(root, lam)), norm2))
    if any(v.denominator != 1 for v in pairings):
        raise AssertionError("coroot pairing is not an integer")
    return tuple(int(v) for v in pairings)


def reference_min_coset_reps(rs: PermRootSystem, p: ParabolicSpec) -> list[WeylElement]:
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


def reference_aP(rs: PermRootSystem, p: ParabolicSpec) -> int:
    """#{w W_P : w^-1 w0 w in W_P} by the descent test of ``in_parabolic``."""
    w0 = longest_element(rs)
    return sum(in_parabolic(rep.inverse() * w0 * rep, p) for rep in reference_min_coset_reps(rs, p))


def tree_walk_reps(rs: RootSystem, p: ParabolicSpec) -> list[list[int]]:
    """The orbit W.lambda_P walked level by level as a tree, trying every
    positive coordinate: s_i.mu is a child of mu iff mu_i > 0 and i is the
    first negative coordinate of s_i.mu, found by copying mu, reflecting
    and scanning the prefix.  Each level's children are sorted stably by
    the node i reflected at, so they run by i and then by parent."""
    moves = _moves(rs.cartan)
    level = [_parabolic_weight(rs, p)]
    reps: list[list[int]] = []
    while level:
        reps.extend(level)
        children = []
        for mu in level:
            for i, m in enumerate(mu):
                if m > 0:
                    nu = mu.copy()
                    nu[i] = -m
                    for j, a in moves[i]:
                        nu[j] += a * m
                    if min(nu[:i], default=0) >= 0:
                        children.append((i, nu))
        children.sort(key=lambda child: child[0])
        level = [nu for _, nu in children]
    return reps


def walked_weight(rs: PermRootSystem, perm: bytes, kept) -> list[int]:
    """w.lambda in omega-coordinates, applying the simple reflections of a
    reduced word of w to lambda one at a time: (s_k mu)_j = mu_j - mu_k C[j][k]."""
    cartan = rs.system.cartan
    mu = [0 if node in kept else 1 for node in rs.nodes]
    while perm != rs.identity_perm():
        # a right descent k (w(alpha_k) < 0) gives w = (w s_k) s_k
        k = next(k for k, pos in enumerate(rs.simple_positions) if perm[pos] >= rs.npos)
        mu = [m - mu[k] * cartan[j][k] for j, m in enumerate(mu)]
        perm = _compose(perm, rs.gens[k])
    return mu


def reduced_word(rs: PermRootSystem, perm: bytes) -> tuple[int, ...]:
    """A reduced word of w, as nodes, by stripping right descents."""
    word = []
    while perm != rs.identity_perm():
        k = next(k for k, pos in enumerate(rs.simple_positions) if perm[pos] >= rs.npos)
        word.append(k + 1)
        perm = _compose(perm, rs.gens[k])
    return tuple(reversed(word))


def word_element(rs: PermRootSystem, word: Sequence[int]) -> WeylElement:
    """s_{a_1} ... s_{a_r} for the word (a_1, ..., a_r) of nodes."""
    w = rs.identity()
    for node in word:
        w = w * rs.simple_reflection(node)
    return w
