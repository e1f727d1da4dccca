"""The per-column fixed-point factors d_k of a group element and their
product |X^g|, a per-element oracle that the tests check against a
direct scan of Z_n^r. The identity itself, the sum of |X^g| over the
group against |G| * tau_r(n), is checked by `menon verify` on
group_action.fixed_point_sum.

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

from math import prod

from .group_action import UpperTriangularMatrix, _cokernel, _leading_block


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
