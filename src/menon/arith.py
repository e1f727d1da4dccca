"""Exact integer arithmetic: trial-division factorization, the classical
multiplicative functions phi and tau, Dirichlet convolution, and the
iterated divisor function tau_r.

Everything here works on plain Python ints, so all values are exact at any
size. The one state kept between calls is a small cache of the last few
factorizations (_factor), so that each modulus of a sweep is trial-divided
once however many of the functions here read it. The module imports only
math, functools and collections.abc: every CLI process pays at start-up for
what the package imports.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb, prod

# Trial division up to sqrt(n) is the factoring engine. The hard ceiling
# below keeps requests in a range where that loop terminates in reasonable
# time; the intended working range of the package is n <= 1e7.
FACTORIZE_MAX = 2**63 - 1

Factorization = list[tuple[int, int]]
ArithFunction = Callable[[int], int]


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def factorize(n: int) -> Factorization:
    """Prime factorization of n as ascending (prime, exponent) pairs.

    Returns the empty list exactly when n = 1. Raises ValueError outside
    [1, FACTORIZE_MAX]. Each call returns a fresh list.
    """
    return list(_factor(n))


# A sweep visits its moduli in order and reads each one's factorization
# several times (phi for |G|, the units or divisors, tau_r), so a few
# entries keep every repeat within one n while memory stays flat.
@lru_cache(maxsize=8)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n) as a tuple, by trial division up to sqrt(n)."""
    if not 1 <= n <= FACTORIZE_MAX:
        raise ValueError(f"factorize expects 1 <= n <= {FACTORIZE_MAX}, got {n!r}")
    pairs = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            pairs.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending (so divisors(1) = [1])."""
    divs = [1]
    for p, a in _factor(n):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    divs.sort()
    return divs


def euler_phi(n: int) -> int:
    """Euler's totient phi(n), computed from the factorization; phi(1) = 1."""
    phi = 1
    for p, a in _factor(n):
        phi *= p ** (a - 1) * (p - 1)
    return phi


def tau(n: int) -> int:
    """Number of divisors of n: the product of (exponent + 1)."""
    t = 1
    for _, a in _factor(n):
        t *= a + 1
    return t


def const_one(_m: int) -> int:
    """The constant-one arithmetic function, the unit of iterated divisor sums."""
    return 1


def dirichlet_convolve(f: ArithFunction, g: ArithFunction, n: int) -> int:
    """(f * g)(n) = sum over d | n of f(d) * g(n / d)."""
    return sum(f(d) * g(n // d) for d in divisors(n))


def tau_r_recursive(n: int, r: int) -> int:
    """Iterated divisor function: tau_r(n) = sum_{d|n} tau_{r-1}(d), tau_0 = 1.

    One table per call holds tau_level(d) for every divisor d of n, indexed
    by the exponent vector of d in mixed radix, one axis per prime of
    n. Each of the r levels replaces the table by its sum over
    e | d: a running sum along each prime axis in turn, one addition
    table[d] += table[d / p] per link (d, d / p). The links are listed once
    per call, as the indices of the d that p divides, with the stride that
    takes d to d / p; axis by axis and by ascending index, so each running
    sum adds up in order. Memory is at most tau(n) * omega(n) links plus
    tau(n) entries for any r, and the time r * tau(n) * omega(n) additions.
    """
    _check_positive("n", n)
    _check_positive("r", r)
    exponents = [a for _, a in _factor(n)]
    size = prod(a + 1 for a in exponents)
    links = []
    stride = 1
    for a in exponents:
        step = stride * (a + 1)
        # d's exponent on this axis is >= 1
        links.append((stride, [i for i in range(stride, size) if i % step >= stride]))
        stride = step
    table = [1] * size
    for _ in range(r):
        for stride, targets in links:
            for i in targets:
                table[i] += table[i - stride]
    return table[-1]


def tau_r_closed(n: int, r: int) -> int:
    """tau_r via its prime-power closed form: product of C(alpha + r, r).

    This is the fast path; tau_r_recursive is the defining recursion and
    the two must agree everywhere.
    """
    _check_positive("n", n)
    _check_positive("r", r)
    out = 1
    for _, a in _factor(n):
        out *= comb(a + r, r)
    return out


def tau2_explicit(n: int) -> int:
    """tau_2 straight from the factorization shape: (1/2^s) prod (a_i+1)(a_i+2).

    The product is always divisible by 2^s because each factor is a product
    of two consecutive integers; the division is performed exactly.
    """
    pairs = _factor(n)
    prod = 1
    for _, a in pairs:
        prod *= (a + 1) * (a + 2)
    q, rem = divmod(prod, 2 ** len(pairs))
    if rem:
        raise AssertionError(f"2^s does not divide the exponent product for n={n}")
    return q
