"""The quotient maps A^n / W_P -> A^n / W in invariant coordinates.

W is the Weyl group of type X in {A, B/C, D} and W_P = S_{k_1} x ... x
S_{k_r} x W(X_m), over blocks of k_i consecutive coordinates and a tail of
the last m = n - sum k_i (m = 0 for A, m != 1 for D); see Chevalley,
"Invariants of finite groups generated by reflections", and Humphreys,
*Reflection Groups and Coxeter Groups*, section 3.  ``build_quotient``
writes the target's basic invariants in the source's:

  * source: e_1 .. e_{k_i} of each block; for B/C, e_1 .. e_m of the
    squares of the tail; for D, e_1 .. e_{m-1} of them and the tail's
    product q;
  * A: component k is e_k(x), the t^k coefficient of prod_i A_i(t), where
    A_i(t) = 1 + sum_j y_{i,j} t^j;
  * B/C: component k is e_k(x^2), the s^k coefficient of prod_i B_i(s) V(s),
    where B_i(s) = sum_j (-1)^j [t^2j] A_i(t) A_i(-t) and V(s) = 1 + sum_j
    v_j s^j is the tail's; for D the same for k < n, with q^2 as V's top
    coefficient, and last x_1 ... x_n = prod_i y_{i,k_i} q.

The series are multiplied out on ``{monomial: kernel value}`` dicts (int
residues over F_p, ints over Q, as in ``localg``), and the components are
the ``MapSpec``'s dicts as they come out.

Component i is weighted-homogeneous of degree ``target_degrees[i]`` when the
variables weigh ``source_degrees``, so the covering degree |W/W_P| is the
ratio of the degree products.  The named families are members: A-partial is
A over its blocks, Sn-full A over 1^n, BC-full B over 1^n, D-full D over
1^n, and D-odd-partial m is D_{2m+1} over the block (1) with tail 2m, the
smallest family whose class has a non-hyperbolic residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Sequence

from .degree import MapSpec
from .poly import _add_product, _product
from .scalar import QQ
from .weyl import (
    block_parabolic,
    build_root_system,
    compute_aP,
    parabolic_order_formula,
)


@dataclass(frozen=True)
class QuotientSpec:
    """A quotient map with the degrees of its source and target generators
    and its Weyl data: W = W(weyl_type, rank), W_P = block_parabolic(...)."""

    family: str  # A-partial | Sn-full | BC-full | D-full | D-odd-partial | {X}{n}-partial
    parameters: tuple[int, ...]
    map: MapSpec
    source_degrees: tuple[int, ...]
    target_degrees: tuple[int, ...]
    weyl_type: str  # A, B, C or D
    rank: int
    blocks: tuple[int, ...]

    @property
    def expected_degree(self) -> int:
        """The covering degree: the index of the source group in the target."""
        return math.prod(self.target_degrees) // math.prod(self.source_degrees)

    def describe(self) -> str:
        params = ",".join(str(v) for v in self.parameters)
        return f"{self.family}({params})"


_BLOCK_LETTERS = "yzwuvt"


def _block_names(blocks: Sequence[int]) -> list[str]:
    if len(blocks) <= len(_BLOCK_LETTERS):
        return [f"{_BLOCK_LETTERS[i]}{j}" for i, b in enumerate(blocks) for j in range(1, b + 1)]
    return [f"b{i + 1}x{j}" for i, b in enumerate(blocks) for j in range(1, b + 1)]


def _times(a: list[dict], b: list[dict], p: int) -> list[dict]:
    """The product of two polynomials in one variable, as lists of
    ``{monomial: kernel value}`` coefficients, modulo p if p."""
    out: list[dict] = [{} for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for m, c in x.items():
                _add_product(out[i + j], c, m, y, p)
    return out


def _alternated(coeffs: list[dict], p: int) -> list[dict]:
    """The coefficients of P(-t) from those of P(t): p - c is -c over Q and
    the residue of -c over F_p."""
    return [{m: p - c for m, c in y.items()} if j % 2 else y for j, y in enumerate(coeffs)]


def build_quotient(
    type_label: str,
    blocks: Sequence[int],
    tail: int,
    field=QQ,
    *,
    family: str,
    ring: Sequence[str] | None = None,
    parameters: Sequence[int] | None = None,
) -> QuotientSpec:
    """The map of the module docstring for W(X_n) over blocks and a tail.
    ``ring`` names the source coordinates (default: y1, y2, .. for the first
    block, z1, .. for the second, then s1, .. for the tail, q for D's
    product); ``parameters`` default to the blocks."""
    blocks = tuple(int(b) for b in blocks)
    n = sum(blocks) + tail
    rank = n - 1 if type_label == "A" else n
    block_parabolic(type_label, rank, blocks)  # refuses blocks and tails with no such W_P
    tail_degrees = [2 * j for j in range(1, tail + 1)]
    tail_names = [f"s{j}" for j in range(1, tail + 1)]
    if type_label == "D" and tail:
        tail_degrees[-1], tail_names[-1] = tail, "q"
    ring = tuple(_block_names(blocks) + tail_names if ring is None else ring)
    p = field.characteristic
    one = (0,) * n
    xs = [{one[:i] + (1,) + one[i + 1 :]: 1} for i in range(n)]
    cuts = [0, *accumulate(blocks)]
    series = [[{one: 1}] + xs[i:j] for i, j in zip(cuts, cuts[1:])]  # the coefficients of A_i(t)
    if type_label == "A":
        factors = series
    else:
        factors = []
        for a in series:
            factors.append(_alternated(_times(a, _alternated(a, p), p)[::2], p))
        tail_coeffs = xs[cuts[-1] :]
        if type_label == "D" and tail:
            tail_coeffs[-1] = _product(tail_coeffs[-1], tail_coeffs[-1], p)
        factors.append([{one: 1}] + tail_coeffs)
    coeffs = reduce(lambda a, b: _times(a, b, p), factors)
    components = coeffs[1 : n + 1]
    target_degrees = [k * (1 if type_label == "A" else 2) for k in range(1, n + 1)]
    if type_label == "D":
        last = [a[-1] for a in series] + xs[cuts[-1] :][-1:]
        components[-1] = reduce(lambda a, b: _product(a, b, p), last)
        target_degrees[-1] = n
    return QuotientSpec(
        family,
        blocks if parameters is None else tuple(parameters),
        MapSpec(ring, field, tuple(components)),
        tuple(j for b in blocks for j in range(1, b + 1)) + tuple(tail_degrees),
        tuple(target_degrees),
        type_label,
        rank,
        blocks,
    )


def _xs(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def build_typeA_partial(blocks: Sequence[int], field=QQ) -> QuotientSpec:
    """A^n / prod S_{n_i} -> A^n / S_n over consecutive blocks of sizes n_i."""
    return build_quotient("A", blocks, 0, field, family="A-partial")


def build_Sn_full(n: int, field=QQ) -> QuotientSpec:
    """The full quotient A^n -> A^n / S_n: components e_1, ..., e_n."""
    if n < 1:
        raise ValueError("n must be positive")
    return build_quotient("A", [1] * n, 0, field, family="Sn-full", ring=_xs(n), parameters=(n,))


def build_typeBC_full(n: int, field=QQ) -> QuotientSpec:
    """Full signed-permutation quotient: components e_k(x_1^2, ..., x_n^2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return build_quotient("B", [1] * n, 0, field, family="BC-full", ring=_xs(n), parameters=(n,))


def build_D_full(n: int, field=QQ) -> QuotientSpec:
    """Full even-sign quotient: e_1(x^2), ..., e_{n-1}(x^2) and x_1 ... x_n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return build_quotient("D", [1] * n, 0, field, family="D-full", ring=_xs(n), parameters=(n,))


def build_D_odd_partial(m: int, field=QQ) -> QuotientSpec:
    """The even-sign group of rank 2m+1 over its corank-one subgroup acting on
    the last 2m coordinates: u0 = x_1, u_k = e_k(x_2^2, ..., x_{2m+1}^2) for
    k < 2m and u_{2m} = x_2 ... x_{2m+1}."""
    if m < 2:
        raise ValueError("m must be at least 2")
    ring, family = [f"u{k}" for k in range(2 * m + 1)], "D-odd-partial"
    return build_quotient("D", [1], 2 * m, field, family=family, ring=ring, parameters=(m,))


@dataclass(frozen=True)
class ExpectedShape:
    """Predicted class shape: p<1> + q<-1> plus a residual of unknown unit."""

    ones: int
    minus_ones: int
    residual_count: int
    rank: int


def expected_gw(spec: QuotientSpec) -> ExpectedShape:
    """Predicted class ((d - a)/2) H + a<alpha> (alpha = 1 for type A) for
    d = |W/W_P|, asserted equal to the covering degree, and a = a_P from
    ``ekl.weyl`` with budget d.  a = 1 when W_P = W, and a = 0 for W(B1),
    W(C1) and W(D2), which contain -1 and which ``ekl.weyl`` does not build.
    """
    deg = spec.expected_degree
    if deg == 1:
        a = 1
    elif (spec.weyl_type, spec.rank) in (("B", 1), ("C", 1), ("D", 2)):
        a = 0
    else:
        rs = build_root_system(spec.weyl_type, spec.rank)
        p = block_parabolic(spec.weyl_type, spec.rank, spec.blocks)
        if rs.order // parabolic_order_formula(rs, p) != deg:
            raise AssertionError(f"|W/W_P| differs from the covering degree {deg}")
        a = compute_aP(rs, p, budget=deg)
    if spec.weyl_type == "A":
        return ExpectedShape((deg + a) // 2, (deg - a) // 2, 0, deg)
    return ExpectedShape((deg - a) // 2, (deg - a) // 2, a, deg)
