"""Integer factorization, primality, and the odd-square-free test."""

import math
import random

import pytest

from sgdgs.errors import UndefinedInputError
from sgdgs.factorint import Factorization, factor_integer, first_primes, is_odd_squarefree, is_prime


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_factor_examples():
    assert factor_integer(12).factors == ((2, 2), (3, 1))
    assert factor_integer(261502945).factors == ((5, 1), (11, 1), (4754599, 1))
    # the scaled discriminant root of the tight 18-vertex example
    s = 7**2 * 347 * 357175051
    fac = factor_integer(s)
    assert fac.factors == ((7, 2), (347, 1), (357175051, 1))
    assert dict(fac.factors)[7] == 2


def test_factor_reconstructs_input():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 10**12)
        fac = factor_integer(n)
        assert fac.value() == n
        assert not fac.probable_only
        for p, _ in fac.factors:
            # independent deterministic check for every reported prime
            if p < 10**10:
                assert trial_division_is_prime(p)
            assert is_prime(p) == (True, True)


def test_factor_handles_negative_and_rejects_zero():
    fac = factor_integer(-18)
    assert fac.unit == -1 and fac.value() == -18
    with pytest.raises(UndefinedInputError):
        factor_integer(0)


def test_factor_one():
    fac = factor_integer(1)
    assert fac.factors == () and fac.value() == 1


def test_is_prime_against_trial_division():
    for n in range(2, 2000):
        assert is_prime(n)[0] == trial_division_is_prime(n)


def test_is_prime_large_semiprime():
    p, q = 1000003, 1000033
    assert is_prime(p) == (True, True)
    assert is_prime(p * q)[0] is False


def test_is_odd_squarefree_examples():
    ok, fac = is_odd_squarefree(1)
    assert ok and fac.factors == ()
    ok, _ = is_odd_squarefree(5 * 11 * 4754599)
    assert ok
    ok, fac = is_odd_squarefree(7**2 * 347 * 357175051)
    assert not ok and not fac.is_squarefree()
    ok, _ = is_odd_squarefree(2 * 3 * 5)
    assert not ok  # even
    with pytest.raises(UndefinedInputError):
        is_odd_squarefree(0)


def test_first_primes():
    ps = first_primes(25)
    assert len(ps) == 25 and ps[0] == 2 and ps[-1] == 97
    assert all(trial_division_is_prime(p) for p in ps)


def test_first_primes_cache_matches_fresh_sieve(monkeypatch):
    from sgdgs import factorint

    fresh = factorint._small_primes(40_000)
    assert first_primes(2000) == fresh[:2000]
    assert first_primes(3000) == fresh[:3000]

    def no_sieve(limit):
        raise AssertionError(f"re-sieved up to {limit}")

    monkeypatch.setattr(factorint, "_small_primes", no_sieve)
    assert first_primes(2000) == fresh[:2000]
    first_primes(10).append(0)  # callers get a copy
    assert first_primes(11)[-1] == 31
    # trial division keeps its list bounded by the trial bound
    assert factorint._PRIMES == fresh[:1229]
    assert factorint._PRIMES[-1] < factorint._TRIAL_BOUND < fresh[1229]


def test_factorization_str():
    assert str(factor_integer(12)) == "2^2 * 3"
    assert str(factor_integer(1)) == "1"
    assert str(factor_integer(-7)) == "-7"
    assert str(Factorization(((7, 2), (347, 1)), 1)) == "7^2 * 347"
