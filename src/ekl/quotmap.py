"""Constructors for reflection-group quotient maps in invariant coordinates.

Each builder returns a QuotientSpec holding the square map expressing the
target invariant generators in the source ones, and the degrees of both
generator sets: component i of the map is weighted-homogeneous of degree
``target_degrees[i]`` when the map's variables weigh ``source_degrees``.
The expected covering degree is the ratio of the two degree products, the
index of the source group in the target group.  Each builder's docstring
names the generators in ambient coordinates; they are not built.

Families:
  * symmetric-group partial quotients A^n / prod S_{n_i} -> A^n / S_n in
    elementary symmetric coordinates (the target components come from the
    convolution of the per-block generating polynomials);
  * full quotients for S_n, the signed-permutation groups (elementary
    symmetric functions of squares), and the even-sign variant (with the
    plain product of coordinates as the last generator);
  * the partial quotient of the even-sign group of odd rank over its
    corank-one subgroup fixing the first coordinate, which is the smallest
    family whose degree class picks up a non-unit residual summand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .degree import MapSpec
from .poly import Polynomial, elementary_symmetric, substitute
from .scalar import QQ
from .weyl import aP_formula_typeA


@dataclass(frozen=True)
class QuotientSpec:
    """A quotient map with the degrees of its source and target generators."""

    family: str  # A-partial | Sn-full | BC-full | D-full | D-odd-partial
    parameters: tuple[int, ...]
    map: MapSpec
    source_degrees: tuple[int, ...]
    target_degrees: tuple[int, ...]

    @property
    def expected_degree(self) -> int:
        """The covering degree: the index of the source group in the target."""
        return math.prod(self.target_degrees) // math.prod(self.source_degrees)

    def describe(self) -> str:
        params = ",".join(str(v) for v in self.parameters)
        return f"{self.family}({params})"


def _ambient(n: int, field) -> tuple[tuple[str, ...], list[Polynomial]]:
    ring = tuple(f"x{i}" for i in range(1, n + 1))
    xs = [Polynomial.variable(v, ring, field) for v in ring]
    return ring, xs


_BLOCK_LETTERS = "yzwuvt"


def _block_names(blocks: Sequence[int]) -> list[list[str]]:
    if len(blocks) <= len(_BLOCK_LETTERS):
        return [
            [f"{_BLOCK_LETTERS[i]}{j}" for j in range(1, b + 1)]
            for i, b in enumerate(blocks)
        ]
    return [
        [f"b{i + 1}x{j}" for j in range(1, b + 1)] for i, b in enumerate(blocks)
    ]


def build_typeA_partial(blocks: Sequence[int], field=QQ) -> QuotientSpec:
    """The map A^n / prod S_{n_i} -> A^n / S_n in elementary symmetric
    coordinates.

    The ambient coordinates x_1 .. x_n split into consecutive blocks of
    sizes n_1, n_2, ...  Source coordinate (i, j) is e_j of block i, of
    degree j; the k-th target component is e_k(x_1, ..., x_n), of degree k,
    written as the coefficient of t^k in the product over blocks of
    (1 + y_{i,1} t + ... + y_{i,n_i} t^{n_i}).
    """
    blocks = tuple(int(b) for b in blocks)
    if not blocks or any(b <= 0 for b in blocks):
        raise ValueError("blocks must be a non-empty list of positive integers")
    n = sum(blocks)
    names = _block_names(blocks)
    ring = tuple(name for group in names for name in group)
    one = Polynomial.constant(1, ring, field)
    zero = Polynomial.zero(ring, field)

    coeffs = [one] + [zero] * n  # running coefficients of the t-polynomial
    degree_so_far = 0
    for i, b in enumerate(blocks):
        block_vars = [Polynomial.variable(v, ring, field) for v in names[i]]
        new = [zero] * (degree_so_far + b + 1)
        for k in range(degree_so_far + 1):
            if coeffs[k].is_zero():
                continue
            new[k] = new[k] + coeffs[k]
            for j, y in enumerate(block_vars, start=1):
                new[k + j] = new[k + j] + coeffs[k] * y
        for k in range(degree_so_far + b + 1):
            coeffs[k] = new[k]
        degree_so_far += b

    spec = QuotientSpec(
        "A-partial",
        blocks,
        MapSpec(ring, tuple(coeffs[k] for k in range(1, n + 1))),
        tuple(j for b in blocks for j in range(1, b + 1)),
        tuple(range(1, n + 1)),
    )
    assert spec.expected_degree == math.factorial(n) // math.prod(
        math.factorial(b) for b in blocks
    )
    return spec


def build_Sn_full(n: int, field=QQ) -> QuotientSpec:
    """The full quotient A^n -> A^n / S_n: components e_1, ..., e_n."""
    if n < 1:
        raise ValueError("n must be positive")
    ring = tuple(f"x{i}" for i in range(1, n + 1))
    gens = tuple(
        elementary_symmetric(k, ring, ring, field) for k in range(1, n + 1)
    )
    return QuotientSpec(
        "Sn-full", (n,), MapSpec(ring, gens), (1,) * n, tuple(range(1, n + 1))
    )


def build_typeBC_full(n: int, field=QQ) -> QuotientSpec:
    """Full signed-permutation quotient: components e_k(x_1^2, ..., x_n^2)."""
    if n < 1:
        raise ValueError("n must be positive")
    ring, xs = _ambient(n, field)
    squares = {f"x{i}": xs[i - 1] * xs[i - 1] for i in range(1, n + 1)}
    gens = tuple(
        substitute(elementary_symmetric(k, ring, ring, field), squares)
        for k in range(1, n + 1)
    )
    return QuotientSpec(
        "BC-full", (n,), MapSpec(ring, gens), (1,) * n, tuple(range(2, 2 * n + 1, 2))
    )


def build_D_full(n: int, field=QQ) -> QuotientSpec:
    """Full even-sign quotient: e_1(x^2), ..., e_{n-1}(x^2) and x_1 ... x_n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    ring, xs = _ambient(n, field)
    squares = {f"x{i}": xs[i - 1] * xs[i - 1] for i in range(1, n + 1)}
    gens = [
        substitute(elementary_symmetric(k, ring, ring, field), squares)
        for k in range(1, n)
    ]
    product = xs[0]
    for x in xs[1:]:
        product = product * x
    gens.append(product)
    return QuotientSpec(
        "D-full",
        (n,),
        MapSpec(ring, tuple(gens)),
        (1,) * n,
        tuple(range(2, 2 * n - 1, 2)) + (n,),
    )


def build_D_odd_partial(m: int, field=QQ) -> QuotientSpec:
    """The partial quotient for the odd-rank even-sign group over the
    corank-one subgroup acting on the last 2m coordinates.

    Ambient variables x_1 .. x_{2m+1}.  Source coordinates:
    u0 = x_1, u_k = e_k(x_2^2, ..., x_{2m+1}^2) for k = 1 .. 2m-1, and
    u_{2m} = x_2 ... x_{2m+1}, of degrees 1, 2, 4, ..., 4m-2 and 2m.  The
    target generators are those of the full even-sign quotient of rank
    2m+1, of degrees 2, 4, ..., 4m and 2m+1.  Target components in the
    source coordinates:
    p_1 = u_1 + u0^2, p_k = u_k + u0^2 u_{k-1} for k = 2 .. 2m-1,
    p_{2m} = u_{2m}^2 + u0^2 u_{2m-1}, p_{2m+1} = u0 u_{2m}.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    ring = tuple(f"u{k}" for k in range(2 * m + 1))
    u = [Polynomial.variable(v, ring, field) for v in ring]
    u0sq = u[0] * u[0]
    comps = [u[1] + u0sq]
    for k in range(2, 2 * m):
        comps.append(u[k] + u0sq * u[k - 1])
    comps.append(u[2 * m] * u[2 * m] + u0sq * u[2 * m - 1])
    comps.append(u[0] * u[2 * m])
    return QuotientSpec(
        "D-odd-partial",
        (m,),
        MapSpec(ring, tuple(comps)),
        (1,) + tuple(range(2, 4 * m - 1, 2)) + (2 * m,),
        tuple(range(2, 4 * m + 1, 2)) + (2 * m + 1,),
    )


@dataclass(frozen=True)
class ExpectedShape:
    """Predicted class shape: p<1> + q<-1> plus a residual of unknown unit."""

    ones: int
    minus_ones: int
    residual_count: int
    rank: int


def expected_gw(spec: QuotientSpec) -> ExpectedShape:
    """Predicted class shape for a built quotient map.

    Partial symmetric quotients have a = floor(n/2)!/prod floor(n_i/2)!
    when at most one block is odd (else 0), absorbed into the unit counts
    since the unit there is 1.  Full quotients of groups containing a
    reflection are integer multiples of the rank-2 split form.  The odd
    even-sign partial quotient keeps a residual of two copies of one
    square class.
    """
    deg = spec.expected_degree
    if spec.family == "A-partial":
        a = aP_formula_typeA(spec.parameters)
        return ExpectedShape((deg + a) // 2, (deg - a) // 2, 0, deg)
    if spec.family in ("Sn-full", "BC-full", "D-full"):
        if deg == 1:
            return ExpectedShape(1, 0, 0, 1)
        return ExpectedShape(deg // 2, deg // 2, 0, deg)
    if spec.family == "D-odd-partial":
        return ExpectedShape((deg - 2) // 2, (deg - 2) // 2, 2, deg)
    raise ValueError(f"unknown family {spec.family!r}")
