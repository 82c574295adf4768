"""Workload op lists, seeded input generation and output oracles.

An op is one call of the public CLI entry ``ekl.cli.main(argv)``.  Each
workload is a fixed list of ops (a "pass"); the worker repeats passes in a
single-client closed loop.  Every op carries an oracle that judges the
captured exit code and stdout.

This module imports nothing from ``ekl`` at import time, so the oracles can
be tested without the library and the generator stays independent of it.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the oracle for its output.

    ``check(exit_code, stdout)`` returns None when the output is right and
    a one-line reason otherwise.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


def _lines(stdout: str) -> dict[str, str]:
    """``key: value`` or ``key value`` report lines, keyed by their first words."""
    out = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
        elif " " in line:
            key, value = line.split(" ", 1)
        else:
            continue
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# quotient-ladder: the paper's quotient-map families over Q

# Exact class strings printed on the ``computed:`` line at the seed commit.
# Every member also has to print ``verdict: MATCH``.
QUOTIENT_LADDER = (
    ("Sn3", ("--type", "Sn", "--n", "3"), "3<1> + 3<-1>"),
    ("Sn4", ("--type", "Sn", "--n", "4"), "12<1> + 12<-1>"),
    ("Sn5", ("--type", "Sn", "--n", "5"), "60<1> + 60<-1>"),
    ("A22", ("--type", "A", "--blocks", "2,2"), "4<1> + 2<-1>"),
    ("A32", ("--type", "A", "--blocks", "3,2"), "6<1> + 4<-1>"),
    ("A311", ("--type", "A", "--blocks", "3,1,1"), "10<1> + 10<-1>"),
    ("A42", ("--type", "A", "--blocks", "4,2"), "9<1> + 6<-1>"),
    ("A33", ("--type", "A", "--blocks", "3,3"), "10<1> + 10<-1>"),
    ("A221", ("--type", "A", "--blocks", "2,2,1"), "16<1> + 14<-1>"),
    ("A321", ("--type", "A", "--blocks", "3,2,1"), "30<1> + 30<-1>"),
    ("A43", ("--type", "A", "--blocks", "4,3"), "19<1> + 16<-1>"),
    ("Dodd2", ("--type", "D", "--rank", "5", "--parabolic", "D4"), "6<1> + 4<-1>"),
    ("Dodd3", ("--type", "D", "--rank", "7", "--parabolic", "D6"), "8<1> + 6<-1>"),
    ("Dodd4", ("--type", "D", "--rank", "9", "--parabolic", "D8"), "10<1> + 8<-1>"),
    ("B2", ("--type", "B", "--rank", "2"), "4<1> + 4<-1>"),
    ("B3", ("--type", "B", "--rank", "3"), "24<1> + 24<-1>"),
    ("Dfull3", ("--type", "D", "--rank", "3"), "12<1> + 12<-1>"),
)


def quotient_check(expected_class: str) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        fields = _lines(stdout)
        if fields.get("verdict") != "MATCH":
            return f"verdict {fields.get('verdict')!r}, expected 'MATCH'"
        if fields.get("computed") != expected_class:
            return f"computed {fields.get('computed')!r}, expected {expected_class!r}"
        return None

    return check


def quotient_ladder_ops() -> list[Op]:
    return [
        Op(name, ("quotient",) + args, quotient_check(expected))
        for name, args, expected in QUOTIENT_LADDER
    ]


# ---------------------------------------------------------------------------
# random-q / random-fp: seeded maps post o diag(c_i x_i^e_i) o pre

VARIABLES = ("x1", "x2", "x3")
EXPONENT_TRIPLES = tuple(
    (a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)
)
# Every pass holds the same map shapes: each exponent triple
# MAPS_PER_TRIPLE times, with the unit coefficients and the positions and
# monomials of both triangular automorphisms drawn once from a fixed
# stream.  So the work of a pass hardly depends on the seed, which picks the
# order of the maps and the signs of the automorphisms' monomials.
MAPS_PER_TRIPLE = 6
UNITS = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)
FP_PRIME = 32003


@dataclass(frozen=True)
class RandomMap:
    """A map f = post o diag(c_i * x_i^e_i) o pre with its closed-form class data."""

    components: tuple[str, ...]
    exponents: tuple[int, int, int]
    units: tuple[int, int, int]

    @property
    def dimension(self) -> int:
        return math.prod(self.exponents)

    def to_json(self) -> str:
        return json.dumps({"variables": list(VARIABLES), "components": list(self.components)})


def _shape(rng: random.Random) -> tuple[int, int, int, int, int]:
    """Positions a, b, c and the monomials of p and q for ``_triangular``."""
    a, b, c = rng.sample(range(3), 3)
    return a, b, c, rng.randrange(2), rng.randrange(5)


def _triangular(args: list[str], shape, signs: tuple[int, int]) -> list[str]:
    """(y_a, y_b + p(y_a), y_c + q(y_a, y_b)) at positions a, b, c, where p
    and q are one monomial of degree 1 or 2 with coefficient +-1; its
    Jacobian determinant is 1."""
    a, b, c, p_term, q_term = shape
    ya, yb = f"({args[a]})", f"({args[b]})"
    out = list(args)
    out[b] = f"{args[b]} + {signs[0]}*{[ya, ya + '^2'][p_term]}"
    q = [ya, yb, ya + "^2", f"{ya}*{yb}", yb + "^2"][q_term]
    out[c] = f"{args[c]} + {signs[1]}*{q}"
    return out


def random_maps(seed: int) -> list[RandomMap]:
    """The seeded op list of the random workloads; the same seed gives the
    same maps over both fields."""
    design = random.Random(0)
    shapes = [
        (exponents, tuple(design.choice(UNITS) for _ in range(3)), _shape(design), _shape(design))
        for exponents in EXPONENT_TRIPLES
        for _ in range(MAPS_PER_TRIPLE)
    ]
    rng = random.Random(seed)
    rng.shuffle(shapes)
    maps = []
    for exponents, units, pre, post in shapes:
        signs = [rng.choice((1, -1)) for _ in range(4)]
        inner = _triangular(list(VARIABLES), pre, signs[:2])
        diag = [f"{u}*({y})^{e}" for u, y, e in zip(units, inner, exponents)]
        maps.append(RandomMap(tuple(_triangular(diag, post, signs[2:])), exponents, units))
    return maps


def _squarefree(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return sign * out * n


def _hilbert_minus_one(a: int, place) -> int:
    """(a, -1)_v for a squarefree integer a."""
    if place == "inf":
        return -1 if a < 0 else 1
    if place == 2:
        u = abs(a) // 2 if a % 2 == 0 else abs(a)
        u = u if a > 0 else -u
        return -1 if u % 4 == 3 else 1
    if a % place:
        return 1
    return 1 if place % 4 == 1 else -1


def expected_q_invariants(m: RandomMap) -> dict[str, str]:
    """Invariants of the degree class over Q, from multiplicativity of the
    local degree: each triangular automorphism has class <1>, and c*x^e has
    class (e/2)H for even e and <c> + ((e-1)/2)H for odd e.  So the class is
    (d/2)H when some e_i is even and <c1 c2 c3> + ((d-1)/2)H otherwise."""
    d = m.dimension
    if d % 2 == 0:
        k, unit = d // 2, None
    else:
        k, unit = (d - 1) // 2, _squarefree(math.prod(m.units))
    signature = 0 if unit is None else (1 if unit > 0 else -1)
    disc = _squarefree((-1) ** k * (unit or 1))
    # Hasse invariant prod_{i<j} (a_i, a_j)_v of <unit, 1, -1, ..., 1, -1>:
    # (unit, -1)_v^k (-1, -1)_v^(k(k-1)/2), with (-1, -1)_v = -1 at 2 and inf.
    places = {2, "inf"} | (set(_prime_factors(abs(unit))) if unit else set())
    hasse = {}
    for v in places:
        s = 1
        if unit is not None and k % 2:
            s *= _hilbert_minus_one(unit, v)
        if v in (2, "inf") and (k * (k - 1) // 2) % 2:
            s = -s
        if s == -1:
            hasse[str(v)] = "-1"
    if hasse:
        hasse_line = ", ".join(f"({v}) -> {s}" for v, s in sorted(hasse.items()))
    else:
        hasse_line = "trivial at every place"
    return {
        "rank": str(d),
        "signature": str(signature),
        "discriminant": str(disc),
        "hasse": hasse_line,
    }


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def expected_fp_invariants(m: RandomMap, p: int = FP_PRIME) -> dict[str, str]:
    """Rank and square class of the discriminant over F_p: (-1)^(d/2) for
    (d/2)H, and c1 c2 c3 (-1)^((d-1)/2) for <c1 c2 c3> + ((d-1)/2)H."""
    d = m.dimension
    disc = (-1) ** (d // 2) if d % 2 == 0 else math.prod(m.units) * (-1) ** ((d - 1) // 2)
    square = pow(disc % p, (p - 1) // 2, p) == 1
    return {"rank": str(d), "discriminant square": "true" if square else "false"}


def invariants_check(expected: dict[str, str]) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        fields = _lines(stdout)
        got = {key: fields.get(key) for key in expected}
        if got != expected:
            return f"invariants {got}, expected {expected}"
        return None

    return check


def random_ops(seed: int, field: str, directory: str) -> list[Op]:
    """Write the seeded maps as MapSpec files and return one ``ekl degree``
    op per map."""
    os.makedirs(directory, exist_ok=True)
    ops = []
    for i, m in enumerate(random_maps(seed)):
        path = os.path.join(directory, f"map{i:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(m.to_json())
        if field == "q":
            argv = ("degree", path, "--format", "invariants")
            expected = expected_q_invariants(m)
        else:
            argv = ("degree", path, "--field", field, "--format", "invariants")
            expected = expected_fp_invariants(m)
        label = "e" + "".join(map(str, m.exponents))
        ops.append(Op(f"map{i:03d}-{label}", argv, invariants_check(expected)))
    return ops


# ---------------------------------------------------------------------------
# weyl-cosets: enumerated self-dual coset counts

# (name, type, parabolic flag, nodes, cosets, a_P).  The coset counts are
# |W| / |W_P| from the closed-form group orders; a_P is the type-A block
# formula floor(n/2)! / prod floor(n_i/2)! (0 with two odd blocks), the
# README values for E6 remove 1 and remove 1,6, 0 for B5, B6 and D6 (their
# longest word is central) and, for E6 keep {1,3}, the value at the seed
# commit.  The values are literals so that set-up does not build (and
# cache) the root systems the ops build; selftest.py checks them against
# ekl.weyl.
WEYL_OPS = (
    ("A5keep1", "A5", "--keep", "1", 360, 0),
    ("A6keep1", "A6", "--keep", "1", 2520, 0),
    ("A6keep135", "A6", "--keep", "1,3,5", 630, 6),
    ("A7keep1357", "A7", "--keep", "1,3,5,7", 2520, 24),
    ("A7keep147", "A7", "--keep", "1,4,7", 5040, 0),
    ("A8keep1357", "A8", "--keep", "1,3,5,7", 22680, 24),
    ("B5keep1", "B5", "--keep", "1", 1920, 0),
    ("B6keep1", "B6", "--keep", "1", 23040, 0),
    ("D6keep1", "D6", "--keep", "1", 11520, 0),
    ("D6keep13", "D6", "--keep", "1,3", 3840, 0),
    ("E6keep13", "E6", "--keep", "1,3", 8640, 0),
    ("E6remove1", "E6", "--remove", "1", 27, 3),
    ("E6remove16", "E6", "--remove", "1,6", 270, 6),
)


def typeA_blocks(rank: int, kept: set[int]) -> list[int]:
    """Block sizes of the parabolic of S_{rank+1} that keeps the given nodes."""
    blocks, size = [], 1
    for node in range(1, rank + 1):
        if node in kept:
            size += 1
        else:
            blocks.append(size)
            size = 1
    blocks.append(size)
    return blocks


def weyl_check(expected_aP: int, expected_cosets: int) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        fields = _lines(stdout)
        if fields.get("cosets") != str(expected_cosets):
            return f"cosets {fields.get('cosets')!r}, expected {expected_cosets}"
        if fields.get("a_P") != str(expected_aP):
            return f"a_P {fields.get('a_P')!r}, expected {expected_aP}"
        return None

    return check


def weyl_ops() -> list[Op]:
    return [
        Op(
            name,
            ("weyl", "ap", "--type", type_text, flag, nodes, "--method", "enumerate"),
            weyl_check(aP, cosets),
        )
        for name, type_text, flag, nodes, cosets, aP in WEYL_OPS
    ]


# ---------------------------------------------------------------------------

WORKLOADS = ("quotient-ladder", "random-q", "random-fp", "weyl-cosets")


def build_ops(workload: str, seed: int, directory: str) -> list[Op]:
    if workload == "quotient-ladder":
        return quotient_ladder_ops()
    if workload == "random-q":
        return random_ops(seed, "q", directory)
    if workload == "random-fp":
        return random_ops(seed, f"fp:{FP_PRIME}", directory)
    if workload == "weyl-cosets":
        return weyl_ops()
    raise ValueError(f"unknown workload {workload!r}")
