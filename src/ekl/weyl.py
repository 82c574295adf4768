"""Root systems, Weyl groups, and parabolic coset counting.

A root system is built from its Cartan matrix; roots live in the
simple-root basis as integer vectors, and group elements are stored as
permutations of the full signed root list (packed into ``bytes``, so
composition is a C-speed translate).  Length is the number of positive
roots sent negative.  Minimal coset representatives of W_P come from a tree
walk of the orbit of a weight lambda with stabilizer W_P, and a_P from
reading w0 = -iota off each weight in that orbit.

Node numbering follows the usual diagram conventions: D_n has its fork at
nodes 1 and 2, both attached to node 3, with the chain running 3 .. n; the
E types run 1-3-4-5-6(-7-8) with node 2 attached to node 4.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

_PAD = bytes(range(256))

#: Largest root count a ``bytes`` permutation can index.
MAX_ROOTS = len(_PAD)

#: Default cap on enumerated group elements; override with EKL_ENUM_BUDGET.
DEFAULT_ENUM_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The requested enumeration exceeds the configured element budget."""


def enum_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    return int(os.environ.get("EKL_ENUM_BUDGET", DEFAULT_ENUM_BUDGET))


def _compose(p: bytes, q: bytes) -> bytes:
    """(p o q)[i] = p[q[i]]."""
    return q.translate(p + _PAD[len(p):])


def _invert(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, v in enumerate(p):
        out[v] = i
    return bytes(out)


# ---------------------------------------------------------------------------
# Cartan matrices, 1-based node numbering (D forks at nodes 1, 2; E chains 1-3-4-...)

def cartan_matrix(type_label: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix C with s_i(a_j) = a_j - C[i][j] a_i."""
    _validate_type(type_label, rank)
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if type_label == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif type_label in ("B", "C"):
        for i in range(1, n - 1):
            bond(i, i + 1)
        if type_label == "B":
            bond(n - 1, n, -1, -2)  # node n short
        else:
            bond(n - 1, n, -2, -1)  # node n long
    elif type_label == "D":
        bond(1, 3)
        bond(2, 3)
        for i in range(3, n):
            bond(i, i + 1)
    elif type_label == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    elif type_label == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)  # nodes 3, 4 short
        bond(3, 4)
    elif type_label == "G":
        bond(1, 2, -3, -1)  # node 1 short
    return tuple(tuple(row) for row in c)


def _validate_type(type_label: str, rank: int) -> None:
    valid = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if type_label not in valid or not valid[type_label]:
        raise ValueError(f"invalid root system {type_label}{rank}")


def weyl_order(type_label: str, rank: int) -> int:
    """Closed-form group order by type."""
    _validate_type(type_label, rank)
    if type_label == "A":
        return math.factorial(rank + 1)
    if type_label in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if type_label == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if type_label == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if type_label == "F":
        return 1152
    return 12  # G2


_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * n - n,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


# ---------------------------------------------------------------------------
# root systems

@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]  # positives first, then their negatives
    npos: int
    simple_positions: tuple[int, ...]  # index of each simple root in ``roots``
    gens: tuple[bytes, ...]  # simple reflections as root permutations
    norms: tuple[Fraction, ...]  # squared-length ratios of the simple roots

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @property
    def order(self) -> int:
        return weyl_order(self.type_label, self.rank)

    def identity_perm(self) -> bytes:
        return bytes(range(2 * self.npos))

    def identity(self) -> "WeylElement":
        return WeylElement(self, self.identity_perm())

    def simple_reflection(self, node: int) -> "WeylElement":
        return WeylElement(self, self.gens[node - 1])

    def length_of(self, perm: bytes) -> int:
        npos = self.npos
        return sum(1 for i in range(npos) if perm[i] >= npos)

    def __repr__(self) -> str:
        return f"<root system {self.type_label}{self.rank}>"


class WeylElement:
    """A Weyl group element as its permutation of the signed root list."""

    __slots__ = ("system", "perm", "_length")

    def __init__(self, system: RootSystem, perm: bytes):
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


@dataclass(frozen=True)
class ParabolicSpec:
    """A subset of Dynkin nodes generating a parabolic subgroup."""

    kept_nodes: frozenset[int]

    @classmethod
    def keep(cls, nodes: Iterable[int]) -> "ParabolicSpec":
        return cls(frozenset(nodes))

    @classmethod
    def remove(cls, rs: RootSystem, nodes: Iterable[int]) -> "ParabolicSpec":
        removed = frozenset(nodes)
        if not removed <= set(rs.nodes):
            raise ValueError(f"nodes {sorted(removed - set(rs.nodes))} are not in the diagram")
        return cls(frozenset(rs.nodes) - removed)

    def validate(self, rs: RootSystem) -> None:
        if not self.kept_nodes <= set(rs.nodes):
            raise ValueError("parabolic nodes outside the diagram")

    def is_proper(self, rs: RootSystem) -> bool:
        return self.kept_nodes != set(rs.nodes)


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Roots and simple reflections from the Cartan matrix, closed under
    the reflection orbit."""
    cartan = cartan_matrix(type_label, rank)
    expected = _POSITIVE_ROOT_COUNT[type_label](rank)
    if 2 * expected > MAX_ROOTS:
        raise ValueError(
            f"{type_label}{rank} has {2 * expected} roots; Weyl group elements "
            f"are stored as bytes permutations of at most {MAX_ROOTS} roots"
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
    if len(positives) != expected or len(roots) != 2 * expected:
        raise AssertionError("root enumeration does not match the classification")
    ordered = positives + [tuple(-c for c in r) for r in positives]
    index = {r: i for i, r in enumerate(ordered)}
    gens = []
    for i in range(n):
        gens.append(bytes(index[reflect(i, r)] for r in ordered))
    simple_positions = tuple(index[s] for s in simple)

    # squared-length ratios solved along the diagram (d_i C[i][j] = d_j C[j][i])
    norms: list[Fraction | None] = [None] * n
    norms[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and norms[j] is None:
                norms[j] = norms[i] * cartan[i][j] / cartan[j][i]
                stack.append(j)

    return RootSystem(
        type_label,
        rank,
        cartan,
        tuple(ordered),
        expected,
        simple_positions,
        tuple(gens),
        tuple(norms),
    )


# ---------------------------------------------------------------------------
# longest element and descent machinery

def longest_element(rs: RootSystem) -> WeylElement:
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


def is_central_longest(rs: RootSystem) -> bool:
    """True iff the longest word acts as -1 on the root space, i.e. is central."""
    npos = rs.npos
    return longest_element(rs).perm == bytes(range(npos, 2 * npos)) + bytes(range(npos))


def min_coset_reps(
    rs: RootSystem, p: ParabolicSpec, budget: int | None = None
) -> list[WeylElement]:
    """Minimal representatives of the left cosets w W_P, by (length, perm).

    W_P fixes lambda = sum of omega_i over the removed nodes, so the cosets
    match the orbit W.lambda, walked as a tree in omega-coordinates: s_i.mu
    is a child of mu iff mu_i > 0 and i is the first negative coordinate of
    s_i.mu.  Each weight but lambda has one parent, so no hash set is needed;
    the representative of s_i.mu is s_i times that of mu, its length the
    depth.  The budget caps the coset count |W| / |W_P|, checked up front.
    """
    p.validate(rs)
    cap = enum_budget(budget)
    if rs.order // parabolic_order_formula(rs, p) > cap:
        raise EnumerationBudgetError(f"coset enumeration exceeded the budget of {cap} elements")
    n, c = rs.rank, rs.cartan
    # (s_i mu)_j = mu_j - mu_i C[j][i], which moves only i and its neighbours
    moves = [[(j, -c[j][i]) for j in range(n) if j != i and c[j][i]] for i in range(n)]
    tables = [g + _PAD[len(g):] for g in rs.gens]  # _compose's padding, done once
    level = [([0 if i in p.kept_nodes else 1 for i in rs.nodes], rs.identity_perm())]
    reps: list[WeylElement] = []
    while level:
        reps.extend(WeylElement(rs, perm) for perm in sorted(q for _, q in level))
        children = []
        for mu, perm in level:
            for i, m in enumerate(mu):
                if m > 0:
                    nu = mu.copy()
                    nu[i] = -m
                    for j, a in moves[i]:
                        nu[j] += a * m
                    if min(nu[:i], default=0) >= 0:
                        children.append((nu, perm.translate(tables[i])))
        level = children
    return reps


def in_parabolic(w: WeylElement, p: ParabolicSpec) -> bool:
    """Greedy left-descent reduction within the kept generators; w lies in
    W_P iff the reduction reaches the identity."""
    rs = w.system
    p.validate(rs)
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


def mulclose(rs: RootSystem, gens: Sequence[WeylElement], budget: int | None = None) -> set[bytes]:
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


def parabolic_subgroup_order(rs: RootSystem, p: ParabolicSpec, budget: int | None = None) -> int:
    """|W_P| by explicit closure of the kept simple reflections."""
    p.validate(rs)
    gens = [rs.simple_reflection(j) for j in sorted(p.kept_nodes)]
    return len(mulclose(rs, gens, budget))


def compute_aP(
    rs: RootSystem,
    p: ParabolicSpec,
    method: str = "auto",
    budget: int | None = None,
) -> int:
    """Number of cosets w W_P with w^{-1} w0 w in W_P.

    With a central longest word w0 every conjugate equals w0 itself, whose
    support is the full diagram, so the count is 0 for any proper
    parabolic; "auto" uses that shortcut when available and enumerates
    minimal coset representatives otherwise; "enumerate" always enumerates.
    A representative w counts iff w0 = -iota fixes mu = w.lambda (lambda as in
    ``min_coset_reps``): mu_k = -mu_iota(k), mu_k = <lambda, (w^-1 alpha_k)^vee>.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    p.validate(rs)
    if not p.is_proper(rs):
        raise ValueError("the parabolic must be proper")
    if method == "auto" and is_central_longest(rs):
        return 0
    w0 = longest_element(rs)
    pairing = _coroot_pairings(rs.type_label, rs.rank, p.kept_nodes)
    # w0(alpha_k) = -alpha_iota(k): pair the positions of alpha_k and alpha_iota(k)
    pairs = [(pos, w0.perm[pos] - rs.npos) for pos in rs.simple_positions]

    def self_dual(perm: bytes) -> bool:
        return all(pairing[perm.index(a)] == -pairing[perm.index(b)] for a, b in pairs)

    return sum(self_dual(rep.perm) for rep in min_coset_reps(rs, p, budget))


@lru_cache(maxsize=None)
def _coroot_pairings(type_label: str, rank: int, kept: frozenset[int]) -> tuple[int, ...]:
    """<lambda, beta^vee> = 2 (lambda, beta) / |beta|^2 for every root beta,
    in ``roots`` order; lambda = sum of omega_i over the nodes i not kept,
    and (omega_i, alpha_j) = delta_ij |alpha_j|^2 / 2."""
    rs = build_root_system(type_label, rank)
    scale = math.lcm(*(x.denominator for x in rs.norms))
    d = [int(x * scale) for x in rs.norms]  # |alpha_i|^2, scaled to integers
    # 2 (alpha_i, alpha_j) = d_i C[i][j]; 2 (lambda, alpha_i) = d_i off the kept nodes
    form = [[x * c for c in row] for x, row in zip(d, rs.cartan)]
    lam = [0 if i in kept else x for i, x in zip(rs.nodes, d)]
    pairings = []
    for root in rs.roots:
        norm2 = sum(c * sum(a * b for a, b in zip(row, root)) for c, row in zip(root, form))
        pairings.append(Fraction(2 * sum(c * x for c, x in zip(root, lam)), norm2))
    if any(v.denominator != 1 for v in pairings):
        raise AssertionError("coroot pairing is not an integer")
    return tuple(int(v) for v in pairings)


def aP_formula_typeA(blocks: Sequence[int]) -> int:
    """Self-dual coset count for S_{n_1} x ... x S_{n_r} inside S_n:
    floor(n/2)! / prod floor(n_i/2)! when at most one block is odd, else 0."""
    if not blocks:
        raise ValueError("empty block list")
    if any(b <= 0 for b in blocks):
        raise ValueError("blocks must be positive")
    odd = sum(1 for b in blocks if b % 2)
    if odd > 1:
        return 0
    n = sum(blocks)
    value = math.factorial(n // 2)
    for b in blocks:
        value //= math.factorial(b // 2)
    return value


def typeA_parabolic_for_blocks(blocks: Sequence[int]) -> ParabolicSpec:
    """Kept nodes of the block parabolic of S_n: all nodes except the cuts."""
    n = sum(blocks)
    cuts = set()
    acc = 0
    for b in blocks[:-1]:
        acc += b
        cuts.add(acc)
    return ParabolicSpec.keep(set(range(1, n)) - cuts)


# ---------------------------------------------------------------------------
# induced sub-diagram classification (for naming and closed-form orders)

def classify_subdiagram(rs: RootSystem, kept: Iterable[int]) -> list[tuple[str, int]]:
    """Connected components of the induced diagram as (type, rank) pairs."""
    kept = sorted(set(kept))
    if not kept:
        return []
    adj: dict[int, list[int]] = {i: [] for i in kept}
    for i in kept:
        for j in kept:
            if i < j and rs.cartan[i - 1][j - 1] != 0:
                adj[i].append(j)
                adj[j].append(i)
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in kept:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        components.append(sorted(comp))
    return [_classify_component(rs, comp, adj) for comp in components]


def _classify_component(rs: RootSystem, comp: list[int], adj) -> tuple[str, int]:
    m = len(comp)
    bonds = []
    for i in comp:
        for j in adj[i]:
            if i < j:
                bonds.append(rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1])
    if any(b == 3 for b in bonds):
        return ("G", 2)
    if any(b == 2 for b in bonds):
        if m == 2:
            return ("B", 2)
        shorts = sum(1 for i in comp if rs.norms[i - 1] < max(rs.norms[j - 1] for j in comp))
        longs = m - shorts
        if shorts >= 2 and longs >= 2:
            return ("F", 4)
        return ("B", m) if shorts == 1 else ("C", m)
    degrees = {i: len([j for j in adj[i] if j in comp]) for i in comp}
    branch = [i for i in comp if degrees[i] == 3]
    if not branch:
        return ("A", m)
    arms = sorted(_arm_lengths(branch[0], adj, comp))
    if arms[0] == 1 and arms[1] == 1:
        return ("D", m)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise ValueError("unrecognized induced diagram component")


def _arm_lengths(center: int, adj, comp: list[int]) -> list[int]:
    lengths = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while True:
            nexts = [x for x in adj[cur] if x != prev]
            if not nexts:
                break
            prev, cur = cur, nexts[0]
            length += 1
        lengths.append(length)
    return lengths


def parabolic_order_formula(rs: RootSystem, p: ParabolicSpec) -> int:
    """|W_P| as the product of the component orders of the induced diagram."""
    order = 1
    for label, rank in classify_subdiagram(rs, p.kept_nodes):
        order *= weyl_order(label, rank)
    return order


def parabolic_type_name(rs: RootSystem, p: ParabolicSpec) -> str:
    comps = classify_subdiagram(rs, p.kept_nodes)
    if not comps:
        return "trivial"
    return " x ".join(f"{label}{rank}" for label, rank in comps)
