"""Exact integer arithmetic used by the adjacency predicate and spectral formulas.

Everything here is deterministic. Primality is a Miller-Rabin test on the
twelve prime bases 2..37, which is exact below 3.18e23 and so for every
element order a group may carry (at most 2**63 - 1); larger input is
rejected rather than answered probabilistically. Factoring and listing
divisors are trial division, used only on group sizes and spectral formulas.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

__all__ = [
    "divisors",
    "euler_phi",
    "factorize",
    "gcd",
    "is_one_or_prime",
    "is_prime",
    "lcm",
    "squarefree_split",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _MR_BASES (Sorenson & Webster, 2015)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """True iff n is prime; 0 and 1 are not prime.

    Division by the base primes settles every n below 41**2; beyond that a
    strong-probable-prime test to each base, which no composite below
    _MR_EXACT_BELOW passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_one_or_prime(n: int) -> bool:
    """The adjacency predicate on a gcd of element orders."""
    return n == 1 or is_prime(n)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of n >= 2 by trial division, as
    ((prime, exponent), ...) with primes ascending."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n, via the factorization of n."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n >= 1, ascending, as exact ints, from the factorization of n."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    found = [1]
    for p, e in factorize(n) if n > 1 else ():
        found += [d * p**i for i in range(1, e + 1) for d in found]
    return tuple(sorted(found))


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*r with r squarefree; returns (s, r)."""
    if n < 0:
        raise ValueError("squarefree_split requires a nonnegative integer")
    if n in (0, 1):
        return (1, n)
    s = isqrt(n)
    if s * s == n:
        return (s, 1)
    sq, r = 1, 1
    for p, e in factorize(n):
        sq *= p ** (e // 2)
        if e % 2:
            r *= p
    return (sq, r)
