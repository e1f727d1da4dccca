"""The generalized gcd-sum identity: per-column fixed-point factors d_k and
their product, the exhaustive left-hand sweep over the whole matrix group,
the closed-form right-hand side, and verification reports. For r = 1 the
report is the classical identity: the sum of gcd(n, a - 1) over the units
a of Z_n against phi(n) * tau(n).

The contract that everything downstream leans on: for every group element
g, the product of compute_dk(g, k) over k = 1..r equals the number of
vectors fixed by g, exactly. d_k is the number of values of the k-th
coordinate that extend to a fixed point of the leading k x k block, i.e.
the ratio of consecutive leading-block fixed-point counts. Each count
comes from exact integer elimination of the block, for every k: no single
gcd of the row entries captures the interaction between rows from k = 3
on (solvability of the upper rows depends jointly on the lower
coordinates). For k <= 2 the ratios equal explicit gcd formulas, which
the tests use as oracles.
"""

from __future__ import annotations

import time
from collections import namedtuple
from math import prod

from . import group_action
from .arith import tau_r_recursive
from .group_action import (
    DEFAULT_BUDGET,
    UpperTriangularMatrix,
    _cokernel,
    _leading_block,
    group_size,
)


class IdentityReport(
    namedtuple("IdentityReport", "n r lhs rhs group_size matched elapsed shards")
):
    """Record of one identity check. lhs and rhs are exact integers;
    matched is lhs == rhs."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        r: int,
        lhs: int,
        rhs: int,
        group_size: int,
        matched: bool,
        elapsed: float,
        shards: int,
    ):
        if matched != (lhs == rhs):
            raise AssertionError(f"report says matched={matched} but lhs={lhs}, rhs={rhs}")
        return super().__new__(cls, n, r, lhs, rhs, group_size, matched, elapsed, shards)


def _solution_count(n: int, mat: list[list[int]]) -> int:
    """Number of x in Z_n^k with mat @ x = 0 (mod n). Consumes mat.

    The kernel of an endomorphism of a finite group has the size of its
    cokernel, the product of the cyclic factors found by _cokernel.
    """
    return prod(_cokernel(n, mat)[0])


def compute_dk(g: UpperTriangularMatrix, k: int) -> int:
    """The k-th per-column factor of g, for 1-based k in 1..r.

    d_k counts the values of the k-th coordinate that extend to a fixed
    point of the leading k x k block of g, so d_1 * ... * d_r is exactly
    the number of vectors fixed by g. Each d_k divides n (the admissible
    coordinate values form a subgroup of Z_n).

    Each leading-block fixed-point count is the kernel size of that block
    of A - I, found by one elimination; the empty block (k = 1) counts 1.
    """
    if not 1 <= k <= g.r:
        raise ValueError(f"column index must be in 1..{g.r}, got {k}")
    n, r, cells = g.n, g.r, g.cells
    below = _solution_count(n, _leading_block(n, r, cells, k - 1))
    count = _solution_count(n, _leading_block(n, r, cells, k))
    dk, rem = divmod(count, below)
    if rem:
        raise AssertionError(f"leading-block counts {count}/{below} not divisible for g={g}")
    return dk


def fixed_point_count_formula(g: UpperTriangularMatrix) -> int:
    """|X^g| as the product of the per-column factors d_k."""
    return prod(compute_dk(g, k) for k in range(1, g.r + 1))


def lhs_star(n: int, r: int, budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Exhaustive sweep: the sum of |X^g| over every group element. This is
    the measured side of the identity."""
    return group_action.fixed_point_sum(n, r, budget=budget, shards=shards)


def rhs_star(n: int, r: int) -> int:
    """Closed form: n^(r(r-1)/2) * phi(n)^r * tau_r(n)."""
    return group_size(n, r) * tau_r_recursive(n, r)


def verify_star(
    n: int,
    r: int,
    budget: int = DEFAULT_BUDGET,
    shards: int = 1,
) -> IdentityReport:
    """Run the sweep against the closed form and report.

    matched must come out True (a mismatch would mean a bug, not new
    mathematics); a False report is still returned rather than raised so
    batch sweeps surface every failure.
    """
    t0 = time.perf_counter()
    lhs = lhs_star(n, r, budget=budget, shards=shards)
    rhs = rhs_star(n, r)
    return IdentityReport(
        n=n,
        r=r,
        lhs=lhs,
        rhs=rhs,
        group_size=group_size(n, r),
        matched=lhs == rhs,
        elapsed=time.perf_counter() - t0,
        shards=shards,
    )
