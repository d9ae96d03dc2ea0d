"""Integer factorization with primality certificates.

Trial division up to a small bound, then Brent's cycle-finding variant of
the rho method on the remaining cofactor.  Primality of every reported
factor is checked with Miller-Rabin: the fixed 12-prime base set is
deterministic below 2^64; above that 64 pseudo-random rounds are used and
the result is flagged as probable rather than certain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import UndefinedInputError

_TRIAL_BOUND = 10_000

# Deterministic witness set for n < 2^64 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTAIN_LIMIT = 1 << 64
_MR_PROBABLE_ROUNDS = 64


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


_PRIMES = _small_primes(_TRIAL_BOUND)
# first_primes' list: starts as _PRIMES, which trial division keeps using, and
# is replaced by a longer sieve when a caller asks for more primes
_extended_primes = _PRIMES


def first_primes(count: int) -> list[int]:
    """The first `count` primes (extends the cached sieve if needed)."""
    global _extended_primes
    primes = _extended_primes
    while len(primes) < count:
        primes = _small_primes(2 * primes[-1])  # Bertrand: at least one more prime
    _extended_primes = primes
    return primes[:count]


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    # True iff n passes the round (is a strong probable prime to base a).
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> tuple[bool, bool]:
    """(prime, certain).  certain=False only for probable primes >= 2^64."""
    if n < 2:
        return False, True
    for p in _MR_BASES:
        if n == p:
            return True, True
        if n % p == 0:
            return False, True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _MR_CERTAIN_LIMIT:
        for a in _MR_BASES:
            if not _miller_rabin_round(n, a, d, r):
                return False, True
        return True, True
    rng = random.Random(n)
    for _ in range(_MR_PROBABLE_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, r):
            return False, True
    return True, False


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: unit * product(p^e), primes strictly increasing."""

    factors: tuple[tuple[int, int], ...]
    unit: int = 1
    probable_only: bool = False

    def value(self) -> int:
        v = self.unit
        for p, e in self.factors:
            v *= p**e
        return v

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return str(self.unit)
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        body = " * ".join(parts)
        return ("-" if self.unit < 0 else "") + body


def factor_integer(n: int) -> Factorization:
    """Complete prime factorization; raises on n = 0."""
    if n == 0:
        raise UndefinedInputError("0 has no prime factorization")
    unit = 1
    if n < 0:
        unit = -1
        n = -n
    counts: dict[int, int] = {}
    probable = False
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        prime, certain = is_prime(m)
        if prime:
            counts[m] = counts.get(m, 0) + 1
            probable = probable or not certain
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    factors = tuple(sorted(counts.items()))
    return Factorization(factors=factors, unit=unit, probable_only=probable)


def is_odd_squarefree(n: int) -> tuple[bool, Factorization]:
    """Theorem-style arithmetic test: n odd with all prime exponents 1."""
    if n < 1:
        raise UndefinedInputError("is_odd_squarefree requires n >= 1")
    fac = factor_integer(n)
    return n % 2 == 1 and fac.is_squarefree(), fac
