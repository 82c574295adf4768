import math
import random
from fractions import Fraction

import pytest

import ekl.scalar
from ekl.gw import hilbert_symbol
from ekl.scalar import (
    DEFAULT_FACTOR_BOUND,
    GF,
    PRIMALITY_LIMIT,
    QQ,
    FactorBoundError,
    SquareClass,
    factorize,
    is_odd_prime,
    legendre,
    squarefree_part,
    squarefree_product,
)


def test_squarefree_examples():
    assert squarefree_part(Fraction(1)) == 1
    assert squarefree_part(Fraction(8)) == 2
    # -12/25 = -3 * (2/5)^2
    assert squarefree_part(Fraction(-12, 25)) == -3


def test_squarefree_square_invariance():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        s = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert squarefree_part(r * s * s) == squarefree_part(r)


def test_squarefree_sign_and_reduction():
    assert squarefree_part(Fraction(-50)) == -2
    assert squarefree_part(Fraction(49, 9)) == 1
    assert squarefree_part(Fraction(2, 3)) == 6  # 2/3 = 6 * (1/3)^2


def test_squarefree_product_matches_factoring():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 101, 9973]
    for _ in range(300):
        shared = rng.sample(primes, rng.randint(0, 3))
        a = rng.choice([-1, 1]) * math.prod(set(shared + rng.sample(primes, rng.randint(0, 3))))
        b = rng.choice([-1, 1]) * math.prod(set(shared + rng.sample(primes, rng.randint(0, 3))))
        assert squarefree_product(a, b) == squarefree_part(a * b)
        assert SquareClass(a) * SquareClass(b) == SquareClass(squarefree_part(a * b))


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_part(Fraction(0))


# two primes near 10^12: rho would need about 10^6 steps to split their product
LARGE_PRIMES = (10**12 + 39, 10**12 + 61)


def test_factor_bound_fails_loudly():
    # a product of two primes beyond the bound is split by rho ...
    assert factorize(1009 * 1013, bound=10) == {1009: 1, 1013: 1}
    # ... unless rho runs out of steps first
    n = math.prod(LARGE_PRIMES)
    with pytest.raises(FactorBoundError, match=f"cofactor {n} exceeds"):
        factorize(n, bound=10)
    # a perfect square cofactor is fine even beyond the bound
    assert factorize(1009 * 1009, bound=10) == {1009: 2}


@pytest.mark.parametrize(
    "factors",
    [
        {1467839: 1, 5009909: 1},  # 7,353,739,816,651, a cofactor of a D7 partial quotient
        {1000003: 1, 1000033: 1},  # the two primes just above the default bound
        {1000003: 2, 1000033: 1, 7: 1},
        {1000003: 1, 1000033: 1, 1000037: 1},
        {2**31 - 1: 1, 2**61 - 1: 1},
    ],
)
def test_rho_splits_cofactors_above_the_bound(factors):
    n = math.prod(p**e for p, e in factors.items())
    assert n > DEFAULT_FACTOR_BOUND**2
    assert factorize(n) == factors
    assert all(is_odd_prime(p) for p in factors)


def test_rho_keeps_the_bound_for_cofactors_it_cannot_split(monkeypatch):
    monkeypatch.setattr(ekl.scalar, "RHO_STEPS", 0)
    with pytest.raises(FactorBoundError, match="cofactor 1000036000099 exceeds"):
        factorize(1000003 * 1000033)


def test_legendre_zero_and_exhaustive_table():
    assert legendre(0, 5) == 0
    # oracle: exhaustive squares mod 7 are {1, 2, 4}
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    for a in range(1, 7):
        assert legendre(a, 7) == (1 if a in squares else -1)


def test_legendre_requires_odd_prime():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            legendre(3, bad)


def test_legendre_multiplicative_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_rational_arithmetic_exact():
    rng = random.Random(11)
    for _ in range(100):
        a = Fraction(rng.randint(-(10**18), 10**18), rng.randint(1, 10**12))
        b = Fraction(rng.randint(-(10**18), 10**18), rng.randint(1, 10**12))
        assert (a + b) - b == a
        assert a.denominator > 0


def test_rational_serialization():
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(-7)) == "-7"
    assert QQ.from_str("3/2") == Fraction(3, 2)


def test_square_class_equality_iff_ratio_square():
    rng = random.Random(3)
    for _ in range(100):
        a = Fraction(rng.randint(-40, 40) or 3, rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40) or 5, rng.randint(1, 40))
        same = SquareClass.of(a) == SquareClass.of(b)
        ratio = a / b
        root_ok = squarefree_part(ratio) == 1
        assert same == root_ok


def test_square_class_validation_and_product():
    with pytest.raises(ValueError):
        SquareClass(0)
    assert SquareClass(2) * SquareClass(2) == SquareClass(1)
    assert SquareClass(6) * SquareClass(10) == SquareClass(15)
    assert str(SquareClass(-3)) == "-3"


def test_prime_field_elements():
    f5 = GF(5)
    a = f5.from_int(3)
    b = f5.from_int(4)
    assert (a + b).residue == 2
    assert (a * b).residue == 2
    assert (a - b).residue == 4
    assert (a / b).residue == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (-a).residue == 2
    assert (a ** 3).residue == 2
    assert not f5.zero
    assert f5.one
    assert f5.from_str("1/2") == f5.from_int(3)


def test_prime_field_requires_odd_prime():
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            GF(bad)


def test_prime_field_modulus_mismatch():
    with pytest.raises(ValueError):
        GF(5).one + GF(7).one


def test_is_odd_prime():
    primes = {3, 5, 7, 11, 13, 1009, 104729}
    for p in primes:
        assert is_odd_prime(p)
    for n in (1, 2, 4, 9, 15, 1009 * 1013):
        assert not is_odd_prime(n)


def test_each_prime_is_tested_once(monkeypatch):
    # Miller-Rabin squares through pow(a, d, n); count its calls per modulus
    tested = []
    real_pow = pow

    def counting(*args):
        if len(args) == 3 and args[2] == 1000003:
            tested.append(args[0])
        return real_pow(*args)

    is_odd_prime.cache_clear()
    monkeypatch.setattr(ekl.scalar, "pow", counting, raising=False)
    for _ in range(3):
        assert GF(1000003).p == 1000003
    assert len(tested) == 13  # one pow per base, in the first GF only
    assert is_odd_prime.cache_info().hits == 2


# 1287836182261 * 2575672364521, a strong pseudoprime to the bases 2..41
PSEUDOPRIME = 3317044064679887385961981
MERSENNE_89 = 2**89 - 1  # prime, but above the certified range


@pytest.mark.parametrize("n", [PSEUDOPRIME, MERSENNE_89])
def test_primality_above_limit_is_not_certified(n):
    assert n >= PRIMALITY_LIMIT
    assert not is_odd_prime(n)
    with pytest.raises(FactorBoundError):
        factorize(n)
    with pytest.raises(ValueError, match=f"odd prime below {PRIMALITY_LIMIT}"):
        GF(n)
    with pytest.raises(ValueError, match=f"odd prime below {PRIMALITY_LIMIT}"):
        hilbert_symbol(3, 5, n)


def test_largest_certified_prime():
    # the largest prime below the limit is still certified
    p = PRIMALITY_LIMIT - 168
    assert is_odd_prime(p)
    assert not any(is_odd_prime(n) for n in range(p + 1, PRIMALITY_LIMIT + 1))
    assert factorize(p) == {p: 1}
    assert GF(p).p == p
