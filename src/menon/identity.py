"""The generalized gcd-sum identity: per-column fixed-point factors d_k and
their product, the exhaustive left-hand sweep over the whole matrix group,
the closed-form right-hand side, and verification reports (the classical
r = 1 unit-group sum included).

The contract that everything downstream leans on: for every group element
g, the product of compute_dk(g, k) over k = 1..r equals the number of
vectors fixed by g, exactly. d_k is the number of values of the k-th
coordinate that extend to a fixed point of the leading k x k block, i.e.
the ratio of consecutive leading-block fixed-point counts. For k <= 2 it
collapses to explicit gcd formulas; from k = 3 on the count comes from
exact integer elimination, because no single gcd of the row entries
captures the interaction between rows (solvability of the upper rows
depends jointly on the lower coordinates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd, prod

from . import group_action
from .arith import euler_phi, tau, tau_r_recursive
from .group_action import (
    DEFAULT_BUDGET,
    UpperTriangularMatrix,
    _cokernel,
    _leading_block,
    group_size,
    units,
)


@dataclass(frozen=True)
class IdentityReport:
    """Record of one identity check. lhs and rhs are exact integers;
    matched is lhs == rhs."""

    n: int
    r: int
    lhs: int
    rhs: int
    group_size: int
    matched: bool
    elapsed: float
    shards: int

    def __post_init__(self) -> None:
        if self.matched != (self.lhs == self.rhs):
            raise AssertionError(
                f"report says matched={self.matched} but lhs={self.lhs}, rhs={self.rhs}"
            )


def _solution_count(n: int, mat: list[list[int]]) -> int:
    """Number of x in Z_n^k with mat @ x = 0 (mod n). Consumes mat.

    The kernel of an endomorphism of a finite group has the size of its
    cokernel, the product of the cyclic factors found by _cokernel.
    """
    return prod(_cokernel(n, mat)[0])


def _leading_fixed_count(g: UpperTriangularMatrix, k: int) -> int:
    # Fixed-point count of the leading k x k block of g; k = 0 gives the
    # empty product 1.
    n, cells = g.n, g.cells
    if k == 0:
        return 1
    if k == 1:
        return gcd(n, cells[0] - 1)
    if k == 2:
        g1 = gcd(n, cells[0] - 1)
        return g1 * gcd(n, n * g.entry(0, 1) // g1, cells[1] - 1)
    return _solution_count(n, _leading_block(n, g.r, cells, k))


def compute_dk(g: UpperTriangularMatrix, k: int) -> int:
    """The k-th per-column factor of g, for 1-based k in 1..r.

    d_k counts the values of the k-th coordinate that extend to a fixed
    point of the leading k x k block of g, so d_1 * ... * d_r is exactly
    the number of vectors fixed by g. Each d_k divides n (the admissible
    coordinate values form a subgroup of Z_n).

    Closed forms for the first two columns, with every residue reduced
    into [0, n) and the gcd(n, 0) = n convention doing the work for unit
    diagonal entries equal to 1:

        d_1 = gcd(n, a_11 - 1)
        d_2 = gcd(n, n a_12 / gcd(n, a_11 - 1), a_22 - 1)

    (the inner gcd divides n, so the division is exact; the full product
    n * a_12 is formed first).
    """
    if not 1 <= k <= g.r:
        raise ValueError(f"column index must be in 1..{g.r}, got {k}")
    below = _leading_fixed_count(g, k - 1)
    count = _leading_fixed_count(g, k)
    dk, rem = divmod(count, below)
    if rem:
        raise AssertionError(f"leading-block counts {count}/{below} not divisible for g={g}")
    return dk


def fixed_point_count_formula(g: UpperTriangularMatrix) -> int:
    """|X^g| as the product of the per-column factors d_k."""
    return prod(compute_dk(g, k) for k in range(1, g.r + 1))


def menon_classic(n: int) -> IdentityReport:
    """The classical unit-group gcd sum: sum of gcd(n, a - 1) over units a
    equals phi(n) * tau(n)."""
    t0 = time.perf_counter()
    lhs = sum(gcd(n, a - 1) for a in units(n))
    rhs = euler_phi(n) * tau(n)
    return IdentityReport(
        n=n,
        r=1,
        lhs=lhs,
        rhs=rhs,
        group_size=group_size(n, 1),
        matched=lhs == rhs,
        elapsed=time.perf_counter() - t0,
        shards=1,
    )


def lhs_star(n: int, r: int, budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Exhaustive sweep: the sum over every group element of the product of
    its per-column factors. This is the measured side of the identity."""
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
