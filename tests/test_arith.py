"""Arithmetic-function layer: frozen oracle values and properties.

The oracle helpers are deliberately naive (scans and direct counts) and
share no code with the implementation paths they check.
"""

import gc
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon.arith import (
    FACTORIZE_MAX,
    const_one,
    dirichlet_convolve,
    divisors,
    euler_phi,
    factorize,
    tau,
    tau2_explicit,
    tau_r_closed,
    tau_r_recursive,
)

# --- independent oracles ----------------------------------------------------


def divisors_scan(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def phi_count(n):
    return sum(1 for a in range(n) if gcd(n, a) == 1) if n > 1 else 1


def is_prime_scan(p):
    return p >= 2 and all(p % d for d in range(2, p))


# --- factorize / divisors ----------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, []),
        (12, [(2, 2), (3, 1)]),
        (97, [(97, 1)]),
        (360, [(2, 3), (3, 2), (5, 1)]),
    ],
)
def test_factorize_values(n, expected):
    assert factorize(n) == expected


@pytest.mark.parametrize("bad", [0, -3, FACTORIZE_MAX + 1])
def test_factorize_range_errors(bad):
    with pytest.raises(ValueError):
        factorize(bad)


@given(n=st.integers(1, 10**6))
def test_factorize_reconstructs_and_is_prime_sorted(n):
    pairs = factorize(n)
    prod = 1
    for p, a in pairs:
        assert a >= 1
        prod *= p**a
    assert prod == n
    primes = [p for p, _ in pairs]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)


@given(n=st.integers(1, 3000))
def test_factorize_primes_are_prime(n):
    assert all(is_prime_scan(p) for p, _ in factorize(n))


@pytest.mark.parametrize(
    "n, expected",
    [(1, [1]), (12, [1, 2, 3, 4, 6, 12]), (7, [1, 7])],
)
def test_divisors_values(n, expected):
    assert divisors(n) == expected


@given(n=st.integers(1, 5000))
def test_divisors_matches_scan(n):
    divs = divisors(n)
    assert divs == divisors_scan(n)
    assert divs[0] == 1 and divs[-1] == n


# --- phi and tau ---------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, 1), (12, 4), (97, 96)])
def test_euler_phi_values(n, expected):
    assert euler_phi(n) == expected
    assert phi_count(n) == expected


def test_euler_phi_matches_direct_count_exhaustive():
    for n in range(1, 2001):
        assert euler_phi(n) == phi_count(n)


@pytest.mark.parametrize("n, expected", [(1, 1), (12, 6), (16, 5)])
def test_tau_values(n, expected):
    assert tau(n) == expected
    assert len(divisors(n)) == expected


@given(n=st.integers(1, 5000))
def test_tau_both_paths_agree(n):
    assert tau(n) == len(divisors(n))


# --- Dirichlet convolution -----------------------------------------------------


@pytest.mark.parametrize(
    "f, g, n, expected",
    [
        (const_one, const_one, 12, 6),
        (tau, const_one, 1, 1),
        # tau(1)+tau(2)+tau(3)+tau(6) = 1+2+2+4 = 9
        (tau, const_one, 6, 9),
    ],
)
def test_dirichlet_convolve_values(f, g, n, expected):
    assert dirichlet_convolve(f, g, n) == expected


@given(n=st.integers(1, 2000))
def test_convolving_with_one_iterates_tau(n):
    assert dirichlet_convolve(const_one, const_one, n) == tau(n)
    assert dirichlet_convolve(tau, const_one, n) == tau_r_recursive(n, 2)


# --- tau_r ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, r, expected",
    [
        (2, 2, 3),  # tau(1) + tau(2)
        (12, 2, 18),  # 1+2+2+3+4+6
        (8, 3, 20),  # sum of tau_2 over divisors of 8: 1+3+6+10
        (1, 7, 1),
    ],
)
def test_tau_r_recursive_values(n, r, expected):
    assert tau_r_recursive(n, r) == expected


@given(n=st.integers(1, 3000))
def test_tau_r_base_case_is_tau(n):
    assert tau_r_recursive(n, 1) == tau(n)


@pytest.mark.parametrize("n, r, expected", [(1, 5, 1), (12, 2, 18), (8, 2, 10)])
def test_tau_r_closed_values(n, r, expected):
    assert tau_r_closed(n, r) == expected
    assert tau_r_recursive(n, r) == expected


@given(n=st.integers(1, 5000), r=st.integers(1, 6))
def test_tau_r_closed_matches_recursion(n, r):
    assert tau_r_closed(n, r) == tau_r_recursive(n, r)


@given(m=st.integers(1, 100), n=st.integers(1, 100), r=st.integers(1, 5))
def test_tau_r_multiplicative_on_coprime_pairs(m, n, r):
    if gcd(m, n) == 1:
        assert tau_r_recursive(m * n, r) == tau_r_recursive(m, r) * tau_r_recursive(n, r)


@settings(max_examples=60)
@given(n=st.integers(1, 1000), r=st.integers(2, 8))
def test_tau_r_is_convolution_power_step(n, r):
    # the literal sum over divisors(), which the exponent lattice never calls
    prev = lambda m: tau_r_recursive(m, r - 1)
    assert dirichlet_convolve(prev, const_one, n) == tau_r_recursive(n, r)


def test_tau_r_recursive_keeps_nothing_between_calls():
    # a memo shared across calls once held every (divisor, level) of a range
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(1, 2001):
            tau_r_recursive(n, 6)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4 * 2**10, held


def test_tau_r_recursive_memory_does_not_grow_with_r():
    # one table of tau(12) = 6 entries, whatever r; a memo per level held 4.5 MB
    gc.collect()
    tracemalloc.start()
    try:
        assert tau_r_recursive(12, 5000) == tau_r_closed(12, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_tau_r_recursive_memory_on_a_highly_composite_modulus():
    # 720720 = 2^4 3^2 5 7 11 13: 240 table entries and 832 links (d, d / p)
    gc.collect()
    tracemalloc.start()
    try:
        assert tau_r_recursive(720720, 6) == tau_r_closed(720720, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**10, peak


@pytest.mark.parametrize("bad_args", [(0, 1), (5, 0), (-1, 2)])
def test_tau_r_rejects_nonpositive(bad_args):
    with pytest.raises(ValueError):
        tau_r_recursive(*bad_args)
    with pytest.raises(ValueError):
        tau_r_closed(*bad_args)


# --- tau2 explicit shape formula --------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, 1), (12, 18), (8, 10)])
def test_tau2_explicit_values(n, expected):
    assert tau2_explicit(n) == expected


def test_tau2_explicit_twelve_is_the_shape_product():
    # 12 = 2^2 * 3: s = 2, product (2+1)(2+2) * (1+1)(1+2) = 72, 72 / 2^2 = 18
    assert len(factorize(12)) == 2
    assert (3 * 4) * (2 * 3) == 72
    assert tau2_explicit(12) == 72 // 4 == 18


@given(n=st.integers(1, 5000))
def test_tau2_explicit_matches_recursion(n):
    assert tau2_explicit(n) == tau_r_recursive(n, 2)
