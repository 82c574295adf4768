"""Polynomial builders and calculus that no library code calls: elementary
symmetric polynomials, formal derivatives and substitution.  Tests build
their oracles from them (the quotient-map generators, the Jacobian matrix,
compositions of maps).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ekl.poly import Field, Polynomial
from ekl.scalar import QQ


def elementary_symmetric(
    k: int, variables: Sequence[str], ring: Sequence[str], field: Field = QQ
) -> Polynomial:
    """e_k of the chosen variables inside ``ring``; e_0 = 1."""
    if k < 0 or k > len(variables):
        raise ValueError(f"e_{k} undefined for {len(variables)} variables")
    layers = [Polynomial.constant(1, ring, field)] + [
        Polynomial.zero(ring, field) for _ in range(k)
    ]
    for name in variables:
        v = Polynomial.variable(name, ring, field)
        for j in range(min(k, len(layers) - 1), 0, -1):
            layers[j] = layers[j] + layers[j - 1] * v
    return layers[k]


def partial_derivative(f: Polynomial, var: str) -> Polynomial:
    if var not in f.ring:
        raise ValueError(f"unknown variable {var!r}")
    i = f.ring.index(var)
    terms: dict = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e:
            new = mono[:i] + (e - 1,) + mono[i + 1 :]
            terms[new] = terms.get(new, f.field.zero) + coeff * f.field.from_int(e)
    return Polynomial(f.ring, f.field, terms)  # drops the terms that vanish


def substitute(
    f: Polynomial,
    assignment: Mapping[str, Polynomial],
    ring: Sequence[str] | None = None,
) -> Polynomial:
    """Full composition: replace each variable of f by its image, expanded.

    Every variable occurring in f must have an image; all images must share
    one target ring and f's field.
    """
    needed = [v for i, v in enumerate(f.ring) if any(m[i] for m in f.terms)]
    for name in needed:
        if name not in assignment:
            raise ValueError(f"no assignment for variable {name!r}")
    images = [assignment[name] for name in needed]
    if images:
        target_ring = images[0].ring
        for img in images:
            if img.ring != target_ring or img.field != f.field:
                raise ValueError("assignment images must share one ring and field")
    else:
        target_ring = tuple(ring) if ring is not None else f.ring
    idx = {name: f.ring.index(name) for name in needed}
    powers: dict[str, list[Polynomial]] = {
        name: [Polynomial.constant(1, target_ring, f.field)] for name in needed
    }
    result = Polynomial.zero(target_ring, f.field)
    for mono, coeff in f.terms.items():
        piece = Polynomial.constant(coeff, target_ring, f.field)
        for name in needed:
            e = mono[idx[name]]
            if e == 0:
                continue
            cache = powers[name]
            while len(cache) <= e:
                cache.append(cache[-1] * assignment[name])
            piece = piece * cache[e]
        result = result + piece
    return result
