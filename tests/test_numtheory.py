from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thetagraph.numtheory import (
    divisors,
    euler_phi,
    factorize,
    gcd,
    is_one_or_prime,
    is_prime,
    lcm,
    squarefree_split,
)


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("a, b, expected", [(6, 4, 2), (7, 1, 1), (12, 12, 12), (0, 0, 0)])
def test_gcd_examples(a, b, expected):
    assert gcd(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [(4, 6, 12), (1, 9, 9), (3, 5, 15)])
def test_lcm_examples(a, b, expected):
    assert lcm(a, b) == expected


@pytest.mark.parametrize("n, expected", [(7, True), (1, False), (0, False), (2, True), (91, False)])
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_trial_division():
    for n in range(10**5):
        assert is_prime(n) is _trial_division_is_prime(n)


@pytest.mark.parametrize(
    "n, expected",
    [
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        ((2**31 - 1) ** 2, False),
        (2**61 - 1, True),
        (2**63 - 25, True),  # the largest prime below 2**63
    ],
)
def test_is_prime_large(n, expected):
    assert is_prime(n) is expected


def test_is_prime_refuses_beyond_its_exact_range():
    assert is_prime(318_665_857_834_031_151_167_460) is False  # even, below the bound
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(318_665_857_834_031_151_167_461)


@pytest.mark.parametrize("n, expected", [(1, True), (4, False), (13, True)])
def test_is_one_or_prime(n, expected):
    assert is_one_or_prime(n) is expected


@pytest.mark.parametrize("n, expected", [(1, 1), (6, 2), (9, 6)])
def test_euler_phi_examples(n, expected):
    assert euler_phi(n) == expected


def test_divisors_equal_a_brute_count_up_to_5000():
    for n in range(1, 5001):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0), n


def test_divisors_are_exact_past_int64():
    n = 2**64 * 3**2  # past int64: the divisors are Python ints, never floats
    assert len(divisors(n)) == 65 * 3 and divisors(n)[-2:] == (n // 2, n)
    assert all(type(d) is int and n % d == 0 for d in divisors(n))
    with pytest.raises(ValueError, match="n >= 1"):
        divisors(0)


def test_euler_phi_equals_brute_count_up_to_10000():
    for n in range(1, 10_001):
        brute = int((np.gcd(np.arange(1, n + 1), n) == 1).sum())
        assert euler_phi(n) == brute, n


@pytest.mark.parametrize(
    "n, expected",
    [(12, ((2, 2), (3, 1))), (7, ((7, 1),)), (360, ((2, 3), (3, 2), (5, 1)))],
)
def test_factorize_examples(n, expected):
    assert factorize(n) == expected


def test_factorize_rejects_small_input():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_up_to_10000():
    for n in range(2, 10_001):
        f = factorize(n)
        assert prod(p**e for p, e in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_gcd_commutative(a, b):
    assert gcd(a, b) == gcd(b, a)


@given(
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
)
def test_gcd_associative(a, b, c):
    assert gcd(gcd(a, b), c) == gcd(a, gcd(b, c))


@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=10**5))
def test_lcm_gcd_product_identity(a, b):
    assert lcm(a, b) * gcd(a, b) == a * b


@given(st.integers(min_value=0, max_value=10**5))
def test_squarefree_split_reconstructs(n):
    s, r = squarefree_split(n)
    assert s * s * r == n
    if r > 1:
        assert all(r % (p * p) for p in range(2, int(r**0.5) + 1))
