"""The five per-family quotient-map builders and the closed-form class
prediction that ``ekl.quotmap`` replaced with ``build_quotient`` and a_P
from ``ekl.weyl``; tests compare the library against them.

Each builder constructs its map its own way (block convolution for the
symmetric partial quotients, elementary symmetric polynomials of the
coordinates or their squares for the full ones, the explicit D-odd
components) and returns an ``OracleSpec`` with the family, the parameters,
the map and the generator degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from conftest import map_spec
from ekl.degree import MapSpec
from ekl.quotmap import ExpectedShape
from ekl.scalar import QQ
from ekl.weyl import aP_formula_typeA
from poly_oracle import Poly, elementary_symmetric, substitute


@dataclass(frozen=True)
class OracleSpec:
    family: str
    parameters: tuple[int, ...]
    map: MapSpec
    source_degrees: tuple[int, ...]
    target_degrees: tuple[int, ...]

    @property
    def expected_degree(self) -> int:
        return math.prod(self.target_degrees) // math.prod(self.source_degrees)


def _ambient(n: int, field) -> tuple[tuple[str, ...], list[Poly]]:
    ring = tuple(f"x{i}" for i in range(1, n + 1))
    return ring, [Poly.variable(v, ring, field) for v in ring]


def _block_names(blocks: Sequence[int]) -> list[list[str]]:
    letters = "yzwuvt"
    if len(blocks) <= len(letters):
        return [[f"{letters[i]}{j}" for j in range(1, b + 1)] for i, b in enumerate(blocks)]
    return [[f"b{i + 1}x{j}" for j in range(1, b + 1)] for i, b in enumerate(blocks)]


def typeA_partial(blocks: Sequence[int], field=QQ) -> OracleSpec:
    """Component k is the t^k coefficient of prod_i (1 + y_{i,1} t + ...)."""
    blocks = tuple(int(b) for b in blocks)
    n = sum(blocks)
    names = _block_names(blocks)
    ring = tuple(name for group in names for name in group)
    one = Poly.constant(1, ring, field)
    zero = Poly.zero(ring, field)
    coeffs = [one] + [zero] * n
    degree_so_far = 0
    for i, b in enumerate(blocks):
        block_vars = [Poly.variable(v, ring, field) for v in names[i]]
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
    return OracleSpec(
        "A-partial",
        blocks,
        map_spec(coeffs[1 : n + 1]),
        tuple(j for b in blocks for j in range(1, b + 1)),
        tuple(range(1, n + 1)),
    )


def Sn_full(n: int, field=QQ) -> OracleSpec:
    ring = tuple(f"x{i}" for i in range(1, n + 1))
    gens = tuple(elementary_symmetric(k, ring, ring, field) for k in range(1, n + 1))
    return OracleSpec("Sn-full", (n,), map_spec(gens), (1,) * n, tuple(range(1, n + 1)))


def _square_gens(n: int, count: int, field):
    ring, xs = _ambient(n, field)
    squares = {f"x{i}": xs[i - 1] * xs[i - 1] for i in range(1, n + 1)}
    gens = [
        substitute(elementary_symmetric(k, ring, ring, field), squares)
        for k in range(1, count + 1)
    ]
    return ring, xs, gens


def typeBC_full(n: int, field=QQ) -> OracleSpec:
    ring, _, gens = _square_gens(n, n, field)
    return OracleSpec(
        "BC-full", (n,), map_spec(gens), (1,) * n, tuple(range(2, 2 * n + 1, 2))
    )


def D_full(n: int, field=QQ) -> OracleSpec:
    ring, xs, gens = _square_gens(n, n - 1, field)
    product = xs[0]
    for x in xs[1:]:
        product = product * x
    return OracleSpec(
        "D-full",
        (n,),
        map_spec(gens + [product]),
        (1,) * n,
        tuple(range(2, 2 * n - 1, 2)) + (n,),
    )


def D_odd_partial(m: int, field=QQ) -> OracleSpec:
    """p_1 = u_1 + u0^2, p_k = u_k + u0^2 u_{k-1} (k < 2m),
    p_{2m} = u_{2m}^2 + u0^2 u_{2m-1}, p_{2m+1} = u0 u_{2m}."""
    ring = tuple(f"u{k}" for k in range(2 * m + 1))
    u = [Poly.variable(v, ring, field) for v in ring]
    u0sq = u[0] * u[0]
    comps = [u[1] + u0sq]
    for k in range(2, 2 * m):
        comps.append(u[k] + u0sq * u[k - 1])
    comps.append(u[2 * m] * u[2 * m] + u0sq * u[2 * m - 1])
    comps.append(u[0] * u[2 * m])
    return OracleSpec(
        "D-odd-partial",
        (m,),
        map_spec(comps),
        (1,) + tuple(range(2, 4 * m - 1, 2)) + (2 * m,),
        tuple(range(2, 4 * m + 1, 2)) + (2 * m + 1,),
    )


def closed_form_gw(spec) -> ExpectedShape:
    """Partial symmetric quotients: a = aP_formula_typeA, absorbed into the
    unit counts.  Full quotients: multiples of H (<1> when the degree is 1).
    D-odd: a residual of two copies of one square class."""
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
