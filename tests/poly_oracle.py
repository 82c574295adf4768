"""Polynomial arithmetic and calculus that no library code calls.

``Poly`` is a ``Polynomial`` with the ring operations (``+``, ``-``, ``*``,
``**``, ``scale``), ``constant_term`` and the constructors ``zero``,
``constant`` and ``variable``.  The library computes on ``{monomial: kernel value}`` dicts and
makes ``Polynomial``s only to print and publish them, so these live here.
Tests build their oracles from them, and from elementary symmetric
polynomials, formal derivatives and substitution (the quotient-map
generators, the Jacobian matrix, compositions of maps).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ekl.poly import Field, Polynomial, mono_mul
from ekl.scalar import QQ


def _coerce(field: Field, value):
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, Fraction):
        if field.characteristic == 0:
            return value
        return field.from_int(value.numerator) / field.from_int(value.denominator)
    return value


class Poly(Polynomial):
    """A Polynomial with the ring operations."""

    __slots__ = ()

    @classmethod
    def of(cls, p: Polynomial) -> "Poly":
        return cls(p.ring, p.field, p.terms)

    @classmethod
    def zero(cls, ring: Sequence[str], field: Field = QQ) -> "Poly":
        return cls(ring, field, {})

    @classmethod
    def constant(cls, value, ring: Sequence[str], field: Field = QQ) -> "Poly":
        return cls(ring, field, {(0,) * len(ring): _coerce(field, value)})

    @classmethod
    def variable(cls, name: str, ring: Sequence[str], field: Field = QQ) -> "Poly":
        ring = tuple(ring)
        if name not in ring:
            raise ValueError(f"unknown variable {name!r}")
        return cls(ring, field, {tuple(1 if v == name else 0 for v in ring): field.one})

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring), self.field.zero)

    def _like(self, terms: dict) -> "Poly":
        p = Poly.__new__(Poly)
        p.ring, p.field, p.terms = self.ring, self.field, terms
        return p

    def _check(self, other: Polynomial) -> None:
        if self.ring != other.ring or self.field != other.field:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            if mono in terms:
                s = terms[mono] + coeff
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
            else:
                terms[mono] = coeff
        return self._like(terms)

    def __neg__(self) -> "Poly":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> "Poly":
        return self + -Poly.of(other)

    def __mul__(self, other: Polynomial) -> "Poly":
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                if m in terms:
                    s = terms[m] + c
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
                else:
                    terms[m] = c
        return self._like(terms)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(1, self.ring, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value) -> "Poly":
        c0 = _coerce(self.field, value)
        return self._like({m: c * c0 for m, c in self.terms.items()} if c0 else {})


def elementary_symmetric(
    k: int, variables: Sequence[str], ring: Sequence[str], field: Field = QQ
) -> Poly:
    """e_k of the chosen variables inside ``ring``; e_0 = 1."""
    if k < 0 or k > len(variables):
        raise ValueError(f"e_{k} undefined for {len(variables)} variables")
    layers = [Poly.constant(1, ring, field)] + [Poly.zero(ring, field) for _ in range(k)]
    for name in variables:
        v = Poly.variable(name, ring, field)
        for j in range(min(k, len(layers) - 1), 0, -1):
            layers[j] = layers[j] + layers[j - 1] * v
    return layers[k]


def partial_derivative(f: Polynomial, var: str) -> Poly:
    if var not in f.ring:
        raise ValueError(f"unknown variable {var!r}")
    i = f.ring.index(var)
    terms: dict = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e:
            new = mono[:i] + (e - 1,) + mono[i + 1 :]
            terms[new] = terms.get(new, f.field.zero) + coeff * f.field.from_int(e)
    return Poly(f.ring, f.field, terms)  # drops the terms that vanish


def substitute(
    f: Polynomial,
    assignment: Mapping[str, Polynomial],
    ring: Sequence[str] | None = None,
) -> Poly:
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
    powers: dict[str, list[Poly]] = {
        name: [Poly.constant(1, target_ring, f.field)] for name in needed
    }
    result = Poly.zero(target_ring, f.field)
    for mono, coeff in f.terms.items():
        piece = Poly.constant(coeff, target_ring, f.field)
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
