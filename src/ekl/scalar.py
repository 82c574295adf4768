"""Exact scalar arithmetic: rationals, odd prime fields, square classes.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always reduced, positive denominator, serialized as ``"p/q"`` or ``"p"``).
Square classes of nonzero rationals are canonicalized as signed squarefree
integers, which makes them hashable and totally ordered.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

#: Largest prime tried during trial-division factorization.  Desk-scale
#: discriminants factor far below this; beyond it we fail loudly rather
#: than return a wrong square class.
DEFAULT_FACTOR_BOUND = 10**6


class FactorBoundError(ArithmeticError):
    """Trial division up to the configured bound could not finish a factorization."""


#: Miller-Rabin with the prime bases 2, 3, ..., 41 decides primality below
#: this bound, which is itself a strong pseudoprime to all of them.
PRIMALITY_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=256, typed=True)
def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; False at and above PRIMALITY_LIMIT.  The
    answers for the last 256 arguments are cached, so a field's modulus,
    asked for by every ``GF`` and ``legendre``, is tested once."""
    if n < 3 or n % 2 == 0 or n >= PRIMALITY_LIMIT:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor a positive integer by trial division up to ``bound``, then
    split what is left with Pollard-Brent rho.

    Raises FactorBoundError when a cofactor survives that rho cannot split
    within RHO_STEPS and that is neither 1, a perfect square, nor
    certifiably prime.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    for p in _trial_primes(bound):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        for p in _cofactor_primes(n, bound):
            factors[p] = factors.get(p, 0) + 1
    return factors


#: Pollard-Brent rho gives up on a cofactor after this many squarings.
RHO_STEPS = 1 << 16


def _cofactor_primes(n: int, bound: int) -> list[int]:
    """The prime factors, with multiplicity, of n > 1 free of primes up to
    ``bound``; FactorBoundError names n when a factor can be neither
    certified nor split."""

    def split(m: int) -> list[int]:
        if m <= bound * bound or is_odd_prime(m):
            return [m]  # below bound^2 with no prime factor <= bound, m is prime
        root = math.isqrt(m)
        if root * root == m:
            return split(root) * 2
        d = _rho(m)
        if d is None:
            raise FactorBoundError(f"cofactor {n} exceeds the trial-division bound {bound}")
        return split(d) + split(m // d)

    return split(n)


def _rho(n: int) -> int | None:
    """A proper divisor of the odd composite n, by Pollard's rho on
    y -> y^2 + c with Brent's cycle search (x is y saved at each power of
    two); c = 1, 2, ... in turn while the gcd comes out n.  None after
    RHO_STEPS squarings."""
    steps = 0
    for c in itertools.count(1):
        x = y = 2
        power = length = 1
        g = 1
        while g == 1:
            if steps == RHO_STEPS:
                return None
            if power == length:
                x, power, length = y, 2 * power, 0
            y = (y * y + c) % n
            length += 1
            steps += 1
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g


def _trial_primes(bound: int):
    yield 2
    p = 3
    while p <= bound:
        yield p
        p += 2


def squarefree_part(r: Rational | int, bound: int = DEFAULT_FACTOR_BOUND) -> int:
    """The unique squarefree integer d with r = d * s^2 for rational s.

    The sign of r is retained; zero is rejected.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("zero has no square class")
    n = r.numerator * r.denominator  # r and n differ by the square denominator^2
    sign = -1 if n < 0 else 1
    d = 1
    for p, e in factorize(abs(n), bound).items():
        if e % 2 == 1:
            d *= p
    return sign * d


def squarefree_product(a: int, b: int) -> int:
    """Squarefree part of a*b for squarefree integers a and b, without
    factoring: the primes they share are exactly those of gcd(a, b)."""
    g = math.gcd(a, b)
    return a * b // (g * g)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 0, 1 or -1."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


@dataclass(frozen=True, order=True)
class SquareClass:
    """A class in Q^x / (Q^x)^2, stored as its signed squarefree representative."""

    rep: int

    def __post_init__(self) -> None:
        if self.rep == 0:
            raise ValueError("square class representative must be nonzero")

    @classmethod
    def of(cls, value: Rational | int, bound: int = DEFAULT_FACTOR_BOUND) -> "SquareClass":
        return cls(squarefree_part(value, bound))

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(squarefree_product(self.rep, other.rep))

    def __str__(self) -> str:
        return str(self.rep)


@dataclass(frozen=True)
class PrimeFieldElement:
    """An element of F_p for an odd prime p, reduced to [0, p)."""

    residue: int
    modulus: int

    def _check(self, other: "PrimeFieldElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed prime field moduli")

    def __add__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement((self.residue + other.residue) % self.modulus, self.modulus)

    def __sub__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement((self.residue - other.residue) % self.modulus, self.modulus)

    def __mul__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        return PrimeFieldElement(self.residue * other.residue % self.modulus, self.modulus)

    def __truediv__(self, other: "PrimeFieldElement") -> "PrimeFieldElement":
        self._check(other)
        if other.residue == 0:
            raise ZeroDivisionError("division by zero in prime field")
        inv = pow(other.residue, self.modulus - 2, self.modulus)
        return PrimeFieldElement(self.residue * inv % self.modulus, self.modulus)

    def __neg__(self) -> "PrimeFieldElement":
        return PrimeFieldElement(-self.residue % self.modulus, self.modulus)

    def __pow__(self, n: int) -> "PrimeFieldElement":
        return PrimeFieldElement(pow(self.residue, n, self.modulus), self.modulus)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return str(self.residue)


class RationalField:
    """The field Q with Fraction elements; a singleton, see ``QQ``."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_str(self, text: str) -> Fraction:
        return Fraction(text)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


class PrimeField:
    """The field F_p for an odd prime p."""

    def __init__(self, p: int) -> None:
        if not is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime below {PRIMALITY_LIMIT}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    @property
    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(1, self.p)

    def from_int(self, n: int) -> PrimeFieldElement:
        return PrimeFieldElement(n % self.p, self.p)

    def from_str(self, text: str) -> PrimeFieldElement:
        """A rational num/den (text or number) as num * den^-1."""
        fr = Fraction(text)
        if fr.denominator % self.p == 0:
            raise ValueError(f"{fr} has no residue modulo {self.p}")
        return self.from_int(fr.numerator * pow(fr.denominator, -1, self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
