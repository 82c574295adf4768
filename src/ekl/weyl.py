"""Root systems, Weyl groups, and parabolic coset counting.

A root system is its Cartan matrix C, with the group order and the
positive-root count read off closed forms by type.  Weyl group data lives
in omega-coordinates only: a weight mu = sum mu_i omega_i, on which the
simple reflection s_i acts by (s_i mu)_j = mu_j - mu_i C[j][i], and an
element is named by a word in the simple reflections.  Three facts do all
the work (Humphreys, *Reflection Groups and Coxeter Groups*):

* l(s_i w) > l(w) iff mu_i > 0 for mu = w.lambda and lambda regular
  dominant.  So reflecting lambda = (1, 2, ..., n) at a positive coordinate
  until none is left takes l(w0) steps, the steps spell a reduced word of
  w0, and the end weight w0.lambda = -iota(lambda) gives the diagram
  automorphism iota.
* The stabilizer of the dominant weight lambda_P = sum of omega_i over the
  nodes removed from P is W_P, so the cosets w W_P match the orbit
  W.lambda_P, which ``min_coset_reps`` walks as a tree: s_i.mu is a child
  of mu iff mu_i > 0 and i is the first negative coordinate of s_i.mu.
  So a weight's first negative coordinate is the node its parent reflected
  at, and only the nodes before it and its upper neighbours can give a
  child (the first-negative rule).  A level of the walk is kept as n + 1
  buckets by that node, and the children at node i are gathered by one
  list comprehension over the buckets of the lower neighbours of i (with
  a prefix check) and one over every bucket above i (with none).
* w^-1 w0 w lies in W_P iff w0 = -iota fixes mu = w.lambda_P, that is
  mu_k = -mu_iota(k) for every node k; ``compute_aP`` counts those weights.

The walk packs a weight of the orbit into one int, after the packed
exponent vectors of Bachmann and Schoenemann (ISSAC 1998): field j, W bits
wide, holds mu_j + B for the bias B = 2^(W-1) - 1.  Since
mu_j = <lambda_P, w^-1 alpha_j^vee> and lambda_P is a 0/1 sum of
fundamental weights, |mu_j| is at most the height h - 1 of the highest
coroot (h = 2N / rank, the Coxeter number, for N positive roots), and W is
the least width with B >= h - 1.  So a field runs over 0 .. 2B: mu_j > 0
iff its top bit is set, mu_j >= 0 iff adding one to it sets the top bit
(with no carry), s_i.mu is the one multiply-add mu + mu_i * Delta_i for
the packed column Delta_i of -C[j][i], and w0 fixes mu iff
field_k + field_iota(k) = 2B for every node k.

Node numbering follows the usual diagram conventions: D_n has its fork at
nodes 1 and 2, both attached to node 3, with the chain running 3 .. n; the
E types run 1-3-4-5-6(-7-8) with node 2 attached to node 4.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

#: Largest positive-root count of a supported root system (A361, B/C/D256);
#: the Cartan matrix has rank^2 entries and the longest word this many.
MAX_POSITIVE_ROOTS = 2**16

#: Default cap on enumerated cosets; override with EKL_ENUM_BUDGET.
DEFAULT_ENUM_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The requested enumeration exceeds the configured element budget."""


def enum_budget(budget: int | None = None) -> int:
    """``budget`` if given, else EKL_ENUM_BUDGET, else the default; a value
    of EKL_ENUM_BUDGET that is not a non-negative integer is a ValueError."""
    if budget is not None:
        return budget
    text = os.environ.get("EKL_ENUM_BUDGET")
    if text is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"EKL_ENUM_BUDGET must be a non-negative integer, not {text!r}")
    return value


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
    npos: int
    norms: tuple[Fraction, ...]  # squared-length ratios of the simple roots
    longest_word: tuple[int, ...]  # a reduced word of w0, as nodes
    iota: tuple[int, ...]  # the diagram automorphism w0 = -iota: node k -> iota[k - 1]

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @property
    def order(self) -> int:
        return weyl_order(self.type_label, self.rank)

    def __repr__(self) -> str:
        return f"<root system {self.type_label}{self.rank}>"


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


def _moves(cartan) -> list[list[tuple[int, int]]]:
    """(s_i mu)_j = mu_j - mu_i C[j][i] moves only i and its neighbours j,
    by (j, -C[j][i]) for each neighbour."""
    n = len(cartan)
    return [[(j, -cartan[j][i]) for j in range(n) if j != i and cartan[j][i]] for i in range(n)]


def _longest_walk(cartan) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reflect lambda = (1, 2, ..., n) at a positive coordinate until none is
    left: the steps are a reduced word of w0, and the end weight
    w0.lambda = -iota(lambda) has coordinate -iota(j) at node j.  A step at
    i changes only i and its neighbours, so only those become candidates."""
    moves = _moves(cartan)
    mu = list(range(1, len(cartan) + 1))
    word = []
    candidates = list(range(len(cartan)))
    while candidates:
        i = candidates.pop()
        m = mu[i]
        if m > 0:
            word.append(i + 1)
            mu[i] = -m
            for j, a in moves[i]:
                mu[j] += a * m
                if mu[j] > 0:
                    candidates.append(j)
    return tuple(word), tuple(-m for m in mu)


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """The Cartan matrix, the squared-length ratios of the simple roots and
    the longest word, refused above MAX_POSITIVE_ROOTS before any of them
    is built."""
    _validate_type(type_label, rank)
    npos = _POSITIVE_ROOT_COUNT[type_label](rank)
    if npos > MAX_POSITIVE_ROOTS:
        raise ValueError(
            f"{type_label}{rank} has {npos} positive roots; "
            f"at most {MAX_POSITIVE_ROOTS} are supported"
        )
    cartan = cartan_matrix(type_label, rank)
    n = rank

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

    word, iota = _longest_walk(cartan)
    if len(word) != npos:
        raise AssertionError("the longest word does not match the positive-root count")
    return RootSystem(type_label, rank, cartan, npos, tuple(norms), word, iota)


# ---------------------------------------------------------------------------
# longest element, cosets and a_P

def longest_element(rs: RootSystem) -> tuple[int, ...]:
    """A reduced word of the longest element w0, as a tuple of nodes."""
    return rs.longest_word


def is_central_longest(rs: RootSystem) -> bool:
    """True iff w0 = -iota acts as -1, i.e. iota is the identity."""
    return rs.iota == rs.nodes


def _parabolic_weight(rs: RootSystem, p: ParabolicSpec) -> list[int]:
    """lambda_P = sum of omega_i over the nodes i not kept; its stabilizer is W_P."""
    return [0 if i in p.kept_nodes else 1 for i in rs.nodes]


def _field_width(rs: RootSystem) -> int:
    """Bits W per field of a packed weight: the least width whose bias
    B = 2^(W-1) - 1 is at least h - 1, for h = 2N / rank the Coxeter number,
    which bounds every |mu_j| of an orbit weight (see the module docstring)."""
    return (2 * rs.npos // rs.rank - 1).bit_length() + 1


@lru_cache(maxsize=None)
def _walk_tables(type_label: str, rank: int) -> tuple[int, tuple]:
    """The field width W of the packed walk and, for each node i, its step:
    the top bit and the shift of field i, the packed column Delta_i (s_i mu
    = mu + mu_i * Delta_i: -2 at i and -C[j][i] at each neighbour j), and
    the neighbours f < i with the ones and the top bits of fields f .. i - 1.
    They depend on the root system only, so they are built once for it."""
    rs = build_root_system(type_label, rank)
    width, moves = _field_width(rs), _moves(rs.cartan)
    mask = (1 << width) - 1
    top = 1 << width - 1
    # ones[k]: a 1 in each field below k; guards[k]: the top bit of each
    ones = [((1 << k * width) - 1) // mask for k in range(rank + 1)]
    guards = [o << width - 1 for o in ones]
    steps = tuple(
        (
            top << i * width,
            i * width,
            sum(a << j * width for j, a in moves[i]) - (2 << i * width),
            tuple((f, ones[i] - ones[f], guards[i] - guards[f]) for f, _ in moves[i] if f < i),
        )
        for i in range(rank)
    )
    return width, steps


def _coset_walk(
    rs: RootSystem,
    p: ParabolicSpec,
    budget: int | None,
    length: int | None,
) -> tuple[int, list[int]]:
    """The orbit walk of ``min_coset_reps`` on packed weights, for a
    validated ``p``: the field width W and
    the weights of every level in walk order, or of level ``length`` only.
    A weight is the int sum of (mu_j + B) << j W, so a field runs over
    0 .. 2B and adding one to it never carries.  A level is n + 1 buckets,
    bucket f holding the weights whose first negative coordinate is f
    (bucket n holds lambda_P alone)."""
    order_p, npos_p = _parabolic(rs.type_label, rs.rank, p.kept_nodes)[1:]
    if length is not None and not 0 <= length <= rs.npos - npos_p:
        raise ValueError(f"no coset of length {length}")
    cap = enum_budget(budget)
    if rs.order // order_p > cap:
        raise EnumerationBudgetError(f"coset enumeration exceeded the budget of {cap} elements")
    n = rs.rank
    width, steps = _walk_tables(rs.type_label, n)
    mask = (1 << width) - 1
    bias = mask >> 1
    lam = sum((m + bias) << j * width for j, m in enumerate(_parabolic_weight(rs, p)))
    level: list[list[int]] = [[] for _ in range(n)] + [[lam]]
    reps: list[int] = []
    depth, last = 0, n  # last: the highest non-empty bucket of the level
    while last >= 0:
        if length is None:
            reps += [r for bucket in level for r in bucket]
        elif depth == length:
            return width, [r for bucket in level for r in bucket]
        children: list[list[int]] = []
        next_last = -1
        for i, (bit, shift, delta, uppers) in enumerate(steps):
            # the upper step from each neighbour f < i: s_i.mu keeps fields
            # f .. i - 1 non-negative
            bucket = [
                nu
                for f, one, guard in uppers
                for r in level[f]
                if r & bit
                and (nu := r + ((r >> shift & mask) - bias) * delta) + one & guard == guard
            ]
            # the lower step from every f > i: s_i only raises fields below i
            if i < last:
                bucket += [
                    r + ((r >> shift & mask) - bias) * delta
                    for b in level[i + 1 : last + 1]
                    for r in b
                    if r & bit
                ]
            if bucket:
                next_last = i
            children.append(bucket)
        level, last = children, next_last
        depth += 1
    if length is not None:
        raise ArithmeticError(f"the coset walk ended at length {depth - 1}, before {length}")
    return width, reps


def min_coset_reps(
    rs: RootSystem, p: ParabolicSpec, budget: int | None = None, length: int | None = None
) -> list[list[int]]:
    """The orbit W.lambda_P in omega-coordinates: one weight w.lambda_P for
    each coset w W_P, ordered by the length of the minimal representative w.
    With ``length`` = k, only the weights whose minimal representative has
    length k, in that order; the walk keeps one level and stops there.
    w0 maps the representative of length l to one of length N - N_P - l,
    for N and N_P the positive-root counts of W and W_P (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, section 2.5), so the lengths run
    over 0 .. N - N_P: a k outside is a ValueError, and a walk that ends
    before level k is an ArithmeticError.

    The orbit is walked as a tree: s_i.mu is a child of mu iff mu_i > 0 and
    i is the first negative coordinate of s_i.mu.  Each weight but lambda_P
    has one parent, so no hash set is needed, and the depth of a weight is
    the length of its minimal representative.  The budget caps the coset
    count |W| / |W_P|, checked up front.

    A level is n + 1 buckets, bucket f holding the weights whose first
    negative coordinate is f: bucket n holds lambda_P, and a child sits in
    the bucket of the node its parent reflected at.  s_i raises only the
    neighbours of i, so every weight of a bucket f > i with mu_i > 0 gives
    a child at i (the lower step, with no check), and a weight of a bucket
    f < i gives one only if f is a neighbour of i, whose reflection lifts
    mu_f (the upper step, with a check of the prefix f .. i - 1).  So
    bucket i of the next level is one comprehension over the buckets of
    the lower neighbours of i and one over the buckets above i.

    Within a level the weights run by the node reflected at, bucket by
    bucket, and within a bucket by parent, in the order of the level
    above: this is the order of trying every i at every weight and
    scanning the prefix of s_i.mu, with each level's children sorted
    stably by i.

    The walk runs on packed weights: one int per weight, whose field j of
    W bits holds mu_j + B for the bias B = 2^(W-1) - 1.  |mu_j| is at most
    the height h - 1 of the highest coroot, h = 2N / n the Coxeter number,
    and W is the least width with B >= h - 1, so a field runs over 0 .. 2B.
    Then mu_i > 0 iff the top bit of field i is set, s_i.mu is one
    multiply-add, mu + (field_i - B) * Delta_i for the packed column Delta_i
    of -C[j][i], and an i > f is kept iff adding one to each field f .. i-1
    of s_i.mu sets all their top bits (every one of them is >= 0).  The
    weights are unpacked here, at the boundary; ``compute_aP`` filters its
    level packed, w0 fixing mu iff field_k + field_iota(k) = 2B for every
    node k.
    """
    p.validate(rs)
    width, packed = _coset_walk(rs, p, budget, length)
    mask = (1 << width) - 1
    bias = mask >> 1
    shifts = range(0, rs.rank * width, width)
    return [[(r >> shift & mask) - bias for shift in shifts] for r in packed]


def in_parabolic(rs: RootSystem, word: Sequence[int], p: ParabolicSpec) -> bool:
    """Whether the product of the simple reflections s_a over the nodes a of
    ``word`` lies in W_P, the stabilizer of lambda_P."""
    p.validate(rs)
    if not set(word) <= set(rs.nodes):
        raise ValueError("word letters outside the diagram")
    moves = _moves(rs.cartan)
    lam = _parabolic_weight(rs, p)
    mu = lam.copy()
    for node in reversed(word):
        i = node - 1
        m = mu[i]
        mu[i] = -m
        for j, a in moves[i]:
            mu[j] += a * m
    return mu == lam


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
    otherwise; "enumerate" always enumerates.  A coset counts iff
    w0 = -iota fixes its weight mu, i.e. mu_k = -mu_iota(k) for every node
    k.  w0 maps the minimal representative of length l to one of length
    N - N_P - l (Bjorner-Brenti, *Combinatorics of Coxeter Groups*,
    section 2.5), so only the middle level (N - N_P) // 2 of the
    ``min_coset_reps`` walk is walked to and tested; when N - N_P is odd,
    no weight there is fixed.  The level is tested packed, not unpacked:
    mu_k = -mu_iota(k) iff field_k + field_iota(k) = 2B, so the level is
    filtered by one comprehension per pair k <= iota(k), and a_P is the
    number of weights left.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    p.validate(rs)
    if not p.is_proper(rs):
        raise ValueError("the parabolic must be proper")
    if method == "auto" and is_central_longest(rs):
        return 0
    npos_p = _parabolic(rs.type_label, rs.rank, p.kept_nodes)[2]
    width, level = _coset_walk(rs, p, budget, (rs.npos - npos_p) // 2)
    mask = (1 << width) - 1
    twice_bias = mask - 1
    for k, j in enumerate(rs.iota):
        if k < j:
            a, b = k * width, (j - 1) * width
            level = [r for r in level if (r >> a & mask) + (r >> b & mask) == twice_bias]
    return len(level)


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


def block_parabolic(type_label: str, rank: int, blocks: Sequence[int]) -> ParabolicSpec:
    """W_P = S_{k_1} x ... x S_{k_r} x W(X_m) in W(X_rank) for X in A, B, C, D,
    over blocks of k_i consecutive coordinates and a tail of the last m (none
    for A, m != 1 for D): all nodes but the cuts k_1, k_1 + k_2, ... in
    Bourbaki's numbering, where node j of D is node rank + 1 - j here."""
    if type_label not in ("A", "B", "C", "D"):
        raise ValueError(f"no block parabolic in type {type_label}")
    if not blocks or min(blocks) <= 0:
        raise ValueError("blocks must be a non-empty list of positive integers")
    tail = rank + (type_label == "A") - sum(blocks)
    if tail < 0 or (type_label == "A" and tail) or (type_label == "D" and tail == 1):
        raise ValueError(f"blocks {','.join(map(str, blocks))} do not fit type {type_label}{rank}")
    cuts = set(itertools.accumulate(blocks))
    if type_label == "D":
        cuts = {rank + 1 - c for c in cuts}
    return ParabolicSpec.keep(set(range(1, rank + 1)) - cuts)


# ---------------------------------------------------------------------------
# induced sub-diagram classification (for naming and closed-form orders)

#: The induced diagram's connected components as (type, rank) pairs.
Components = list[tuple[str, int]]


def classify_subdiagram(rs: RootSystem, kept: Iterable[int]) -> Components:
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
    return _parabolic(rs.type_label, rs.rank, p.kept_nodes)[1]


@lru_cache(maxsize=None)
def _parabolic(type_label: str, rank: int, kept: frozenset[int]) -> tuple[tuple, int, int]:
    """The induced diagram's components, |W_P| and N_P.  They depend on the
    root system and the kept nodes only, so each parabolic is classified
    once, however many functions ask for it."""
    components = tuple(classify_subdiagram(build_root_system(type_label, rank), kept))
    order, npos = 1, 0
    for label, r in components:
        order *= weyl_order(label, r)
        npos += _POSITIVE_ROOT_COUNT[label](r)
    return components, order, npos


def parabolic_type_name(rs: RootSystem, p: ParabolicSpec) -> str:
    """The induced diagram's components joined by " x ", or "trivial"."""
    comps = _parabolic(rs.type_label, rs.rank, p.kept_nodes)[0]
    if not comps:
        return "trivial"
    return " x ".join(f"{label}{rank}" for label, rank in comps)
