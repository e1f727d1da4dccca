"""The group of invertible upper-triangular r x r matrices over Z_n, its
action on the column space Z_n^r, direct fixed-point counting, the
fixed-point sweep and its elimination routine, Burnside orbit counting,
orbit partitioning by union-find over a generating set, and the
divisor-chain orbit invariant.

Enumeration order is fixed and documented: the diagonal entries run over
the units of Z_n ascending, most significant first, followed by the strict
upper-triangle entries row-major over 0..n-1. Every sweep is a pure fold
over a contiguous range of that index space, so shard totals combine into
bit-identical results for any shard count.

The records (matrices, vectors, divisor chains) are named tuples that check
their fields on construction: immutable and hashable, and, as tuples, equal
to a plain tuple of the same fields.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache
from itertools import chain, compress, islice, product
from math import gcd, lcm, prod
from operator import mul

from .arith import _factor, divisors, euler_phi

# Default cap on estimated elementary operations for any enumerating call.
DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised instead of starting an enumeration whose estimated cost is too big.

    group_size is None when the refused work enumerates no group, and
    estimated_ops and group_size are both None when a lower bound refused
    the work before either was computed (_check_floor).
    """

    def __init__(
        self,
        message: str,
        *,
        estimated_ops: int | None,
        budget: int,
        group_size: int | None = None,
    ):
        super().__init__(message)
        self.estimated_ops = estimated_ops
        self.budget = budget
        self.group_size = group_size


def _check_budget(op: str, estimated_ops: int, budget: int, size: int | None = None) -> None:
    """Refuse op when its estimate exceeds the budget; size is |G| when op
    enumerates the group, else None."""
    if estimated_ops > budget:
        group = "" if size is None else f"group size {size}, "
        raise BudgetExceededError(
            f"{op} refused: {group}estimated {estimated_ops} elementary "
            f"operations exceeds budget {budget}",
            estimated_ops=estimated_ops,
            budget=budget,
            group_size=size,
        )


def _check_floor(op: str, n: int, bits: int, budget: int) -> None:
    """Refuse work that costs at least 2^bits operations for n >= 2 once
    that bound alone exceeds the budget.

    It runs before the estimate and |G| are computed: for large r their
    digits alone can outgrow memory, or the decimal string a refusal
    prints. It refuses nothing that the full estimate would admit.
    """
    if n >= 2 and bits >= budget.bit_length():
        raise BudgetExceededError(
            f"{op} refused: at least 2^{bits} elementary operations exceeds budget {budget}",
            estimated_ops=None,
            budget=budget,
        )


def units(n: int) -> tuple[int, ...]:
    """Residues in [0, n) coprime to n, ascending. units(1) = (0,)."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n!r}")
    # Sieve: strike out the multiples of each prime factor of n.
    coprime = bytearray(b"\x01") * n
    for p, _ in _factor(n):
        coprime[::p] = bytes(len(range(0, n, p)))
    return tuple(compress(range(n), coprime))


def _cell(r: int, i: int, j: int) -> int:
    # The cells index of strict entry (i, j), i < j: past the r diagonal
    # cells and the r - 1 - t strict entries of each row t < i.
    return r + i * (2 * r - i - 1) // 2 + j - i - 1


class UpperTriangularMatrix(namedtuple("UpperTriangularMatrix", "n r cells")):
    """Invertible upper-triangular matrix over Z_n.

    cells holds the diagonal first, then the strict upper triangle row-major;
    the strict lower triangle is implicitly zero. Diagonal entries must be
    units of Z_n and every stored entry lies in [0, n).
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, cells: tuple[int, ...]):
        if n < 1 or r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        expected = r * (r + 1) // 2
        if len(cells) != expected:
            raise ValueError(f"expected {expected} cells for r={r}, got {len(cells)}")
        if any(not 0 <= c < n for c in cells):
            raise ValueError(f"entries must lie in [0, {n}), got {cells}")
        for i in range(r):
            if gcd(n, cells[i]) != 1:
                raise ValueError(f"diagonal entry {cells[i]} is not a unit mod {n}")
        return super().__new__(cls, n, r, cells)

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-based (row i, column j); zero below the diagonal."""
        if not (0 <= i < self.r and 0 <= j < self.r):
            raise IndexError(f"entry ({i}, {j}) out of range for r={self.r}")
        if i > j:
            return 0
        if i == j:
            return self.cells[i]
        return self.cells[_cell(self.r, i, j)]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The full r x r matrix, including the zero lower triangle."""
        return tuple(tuple(self.entry(i, j) for j in range(self.r)) for i in range(self.r))

    @classmethod
    def from_rows(cls, n: int, rows) -> "UpperTriangularMatrix":
        """Build from a square row-of-rows literal; lower entries must be 0."""
        r = len(rows)
        for i in range(r):
            if len(rows[i]) != r:
                raise ValueError("rows must form a square matrix")
            for j in range(i):
                if rows[i][j] % n != 0:
                    raise ValueError(f"entry ({i}, {j}) below the diagonal must be zero")
        cells = [rows[i][i] % n for i in range(r)]
        cells += [rows[i][j] % n for i in range(r) for j in range(i + 1, r)]
        return cls(n=n, r=r, cells=tuple(cells))

    @classmethod
    def identity(cls, n: int, r: int) -> "UpperTriangularMatrix":
        one = 1 % n
        return cls(n=n, r=r, cells=tuple([one] * r + [0] * (r * (r - 1) // 2)))


class ResidueVector(namedtuple("ResidueVector", "n r coords")):
    """Element of Z_n^r: coordinates x_0..x_{r-1}, each in [0, n)."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, coords: tuple[int, ...]):
        if n < 1 or r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        if len(coords) != r:
            raise ValueError(f"expected {r} coordinates, got {len(coords)}")
        if any(not 0 <= c < n for c in coords):
            raise ValueError(f"coordinates must lie in [0, {n}), got {coords}")
        return super().__new__(cls, n, r, coords)


class DivisorChain(namedtuple("DivisorChain", "n r values")):
    """Orbit invariant: values (v_1..v_r) with v_1 | n and each subsequent
    v_k dividing the running quotient n / (v_1 ... v_{k-1})."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, values: tuple[int, ...]):
        if n < 1 or r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        if len(values) != r:
            raise ValueError(f"expected {r} chain values, got {len(values)}")
        remaining = n
        for k, v in enumerate(values):
            if v < 1 or remaining % v != 0:
                raise ValueError(
                    f"chain value {v} at position {k} does not divide the remaining quotient {remaining}"
                )
            remaining //= v
        return super().__new__(cls, n, r, values)


def group_size(n: int, r: int) -> int:
    """Order of the group: n^(r(r-1)/2) * phi(n)^r."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    return n ** (r * (r - 1) // 2) * euler_phi(n) ** r


def _pools(n: int, r: int, us=None) -> list:
    # Digit pools in significance order (matches the cells layout); us is
    # the diagonal digits' pool: units(n), or element_at's unit indices.
    us = units(n) if us is None else us
    return [us] * r + [range(n)] * (r * (r - 1) // 2)


def element_at(n: int, r: int, index: int) -> UpperTriangularMatrix:
    """The index-th group element in enumeration order (0-based), decoded
    over unit indices; _unit_residue's bisection turns each diagonal digit
    k into the k-th unit, so no O(n) tuple of units is built."""
    size = group_size(n, r)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for group of size {size}")
    cells = next(_product_from(_pools(n, r, range(euler_phi(n))), index))
    primes = [p for p, _ in _factor(n)]
    diagonal = [_unit_residue(n, primes, k + 1) - 1 for k in cells[:r]]
    return UpperTriangularMatrix(n=n, r=r, cells=(*diagonal, *cells[r:]))


def _iter_cells(n: int, r: int, lo: int, hi: int):
    """The cells of the elements lo..hi-1 that exist, in enumeration order,
    as tuples. The walk starts at lo, not at element 0."""
    return islice(_product_from(_pools(n, r), lo), max(hi - lo, 0))


def _product_from(pools: list, first: int):
    """product(*pools) from its index `first` on, first >= 0, without
    walking the items before it; nothing when first is past the end.

    first is decoded into one digit per pool in mixed radix. The items from
    there on are m + 1 products in a chain: the item itself, then, for each
    position j from the last pool back to the first, the items that keep
    its digits before j, take a later digit at j and any digits after j.
    Each product is built only when the chain reaches it, so a caller that
    stops early pays for none of the rest.
    """
    digits = []
    for pool in reversed(pools):
        first, c = divmod(first, len(pool))
        digits.append(c)
    if first:  # a carry out of the most significant digit
        return iter(())
    digits.reverse()
    head = [(pool[c],) for pool, c in zip(pools, digits)]
    js = range(len(pools) - 1, -1, -1)
    later = (product(*head[:j], pools[j][digits[j] + 1 :], *pools[j + 1 :]) for j in js)
    return chain(product(*head), chain.from_iterable(later))


def _admit_sweep(op: str, n: int, r: int, budget: int) -> int:
    """Refuse op, a sweep of the group, when |G| * r^2 exceeds the budget; return |G|."""
    _check_floor(op, n, r * (r - 1) // 2, budget)  # |G| >= 2^(r(r-1)/2)
    size = group_size(n, r)
    _check_budget(op, size * r * r, budget, size)
    return size


def enumerate_group(n: int, r: int, budget: int = DEFAULT_BUDGET):
    """All group elements, exactly once, in the documented order.

    Refuses up front (BudgetExceededError) when the estimated sweep cost
    |G| * r^2 exceeds the budget.
    """
    size = _admit_sweep(f"enumerate_group({n}, {r})", n, r, budget)
    return (UpperTriangularMatrix(n=n, r=r, cells=cells) for cells in _iter_cells(n, r, 0, size))


def apply(g: UpperTriangularMatrix, x: ResidueVector) -> ResidueVector:
    """Act with g on x: y_i = sum_{j >= i} a_ij x_j mod n."""
    if (g.n, g.r) != (x.n, x.r):
        raise ValueError(
            f"matrix over Z_{g.n}^{g.r} cannot act on vector in Z_{x.n}^{x.r}"
        )
    n, r = g.n, g.r
    coords = tuple(
        sum(g.entry(i, j) * x.coords[j] for j in range(i, r)) % n for i in range(r)
    )
    return ResidueVector(n=n, r=r, coords=coords)


def matmul(g: UpperTriangularMatrix, h: UpperTriangularMatrix) -> UpperTriangularMatrix:
    """Matrix product g @ h mod n (upper-triangular matrices are closed)."""
    if (g.n, g.r) != (h.n, h.r):
        raise ValueError("operands must share modulus and dimension")
    n, r = g.n, g.r
    cells = [g.entry(i, i) * h.entry(i, i) % n for i in range(r)]
    cells += [
        sum(g.entry(i, k) * h.entry(k, j) for k in range(i, j + 1)) % n
        for i in range(r)
        for j in range(i + 1, r)
    ]
    return UpperTriangularMatrix(n=n, r=r, cells=tuple(cells))


def fixed_points_direct(g: UpperTriangularMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """|X^g| by full enumeration of Z_n^r. The trusted slow path."""
    n, r = g.n, g.r
    cost = n**r * r * r
    _check_budget(f"fixed_points_direct(n={n}, r={r})", cost, budget, group_size(n, r))
    # rows checked bottom-up, so most vectors fail fast on the single-term last row
    rows = g.rows()
    order = range(r - 1, -1, -1)
    count = 0
    for x in product(range(n), repeat=r):
        for i in order:
            s = 0
            row = rows[i]
            for j in range(i, r):
                s += row[j] * x[j]
            if s % n != x[i]:
                break
        else:
            count += 1
    return count


def _shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    q, rem = divmod(total, shards)
    bounds = []
    lo = 0
    for s in range(shards):
        hi = lo + q + (1 if s < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _leading_block(n: int, r: int, cells, k: int) -> list[list[int]]:
    """The leading k x k block of A - I over Z_n, as fresh lists.

    cells is the cells layout of an r x r element; any prefix of it that
    holds the block's entries will do.
    """
    block = []
    for i in range(k):
        start = _cell(r, i, i + 1)  # row i's strict entries are contiguous
        block.append([0] * i + [(cells[i] - 1) % n, *cells[start : start + k - 1 - i]])
    return block


def _cokernel(n: int, mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Cyclic decomposition of Z_n^k / (mat Z_n^k). Consumes mat.

    Integer row/column elimination (unimodular operations) brings mat to
    diagonal form D = U mat V, with the row operations tracked in U. Then
    the cokernel is the direct sum of Z/d_i with d_i = gcd(n, D_ii), so:

      * the kernel of mat over Z_n has prod(d) elements;
      * v lies in the image exactly when (U v)_i = 0 mod d_i for every i;
      * the order of v in the cokernel is lcm_i d_i / gcd(d_i, (U v)_i).

    U is returned reduced mod n, which every d_i divides.

    A 1 x 1 block [[a]] (every r = 2 M') gives d = [gcd(n, a)], U = [[1]].
    A 2 x 2 block [[a, b], [0, c]] (every M' of an r = 3 sweep, and the
    k = 2 blocks of compute_dk) is reduced mod n, with a = 0 read as n, by
    alternate extended-gcd steps. A column step takes
    x a + y b = g from the top row and multiplies by [[x, -b/g], [y, a/g]]:
    the top row becomes (g, 0) and the bottom row (c y, c a/g). A row step
    does the same to the first column by the transposed matrix, mirrored in
    U. Each step needs the off-diagonal entry it does not clear to be 0,
    which holds from the start only when the lower-left entry is, so that
    shape alone takes this route. Euclid runs on (b, a), so a | b gives
    (x, y) = (1, 0), a plain subtraction that ends the loop; any other step
    leaves g < a. A step that leaves an off-diagonal entry without
    shrinking a raises, so a broken step fails instead of looping.

    Every other block (k >= 3, or a nonzero lower-left entry) takes one
    smallest-pivot loop: each pass for t swaps the nonzero entry p of
    least absolute value in rows and columns t.. to (t, t), then subtracts
    floor(a / p) times row t from each row below and column t from each
    column to its right. Row operations are mirrored in U; column ones need
    no record. If column t below and row t to the right are now clear, p is
    the t-th diagonal entry. Otherwise what is left there are remainders
    smaller than |p|, so the next pass pivots on a smaller entry; |p| only
    falls, so the passes for one t end. Once rows and columns t.. are all
    zero, each remaining factor is Z/n.
    """
    k = len(mat)
    if k == 1:
        return [gcd(n, mat[0][0])], [[1 % n]]
    if k == 2 and not mat[1][0] % n:
        (a, b), (_, c) = mat
        a, b, c = a % n or n, b % n, c % n
        u, v, w, z, on_rows = 1, 0, 0, 1, False  # U = [[u, v], [w, z]]
        while b:
            g, x, y, s, x1, y1 = b, 0, 1, a, 1, 0
            while s:
                q = g // s
                g, x, y, s, x1, y1 = s, x1, y1, g - q * s, x - q * x1, y - q * y1
            if on_rows:
                u, v, w, z = x * u + y * w, x * v + y * z, (a * w - b * u) // g, (a * z - b * v) // g
            a, b, c, on_rows, last = g, c * y % n, c * (a // g) % n, not on_rows, a
            if b and a >= last:
                raise AssertionError(f"2 x 2 reduction stalled at {a} mod {n}")
        return [gcd(n, a), gcd(n, c)], [[u % n, v % n], [w % n, z % n]]
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    d = []
    t = 0
    while t < k:
        entries = [(abs(v), i, j) for i in range(t, k) for j, v in enumerate(mat[i][t:], t) if v]
        if not entries:
            d += [n] * (k - t)
            break
        _, pi, pj = min(entries)
        mat[t], mat[pi] = mat[pi], mat[t]
        U[t], U[pi] = U[pi], U[t]
        for row in mat[t:]:
            row[t], row[pj] = row[pj], row[t]
        top, p = mat[t], mat[t][t]
        for i in range(t + 1, k):
            if q := mat[i][t] // p:
                mat[i] = [a - q * b for a, b in zip(mat[i], top)]
                U[i] = [a - q * b for a, b in zip(U[i], U[t])]
        for j in range(t + 1, k):
            if q := top[j] // p:
                for row in mat[t:]:
                    row[j] -= q * row[t]
        if not any(top[t + 1 :]) and not any(row[t] for row in mat[t + 1 :]):
            d.append(gcd(n, p))
            t += 1
    return d, [[u % n for u in row] for row in U]


# Residues per window of the r = 1 sweep. Each window costs one Python-level
# slice count per divisor of n, so a smaller window lets that cost grow: at
# n = 73 513 440 (tau = 768) the sweep took 1.9 s with 2^16 and 1.4 s with
# 2^20 (2-vCPU Xeon, Python 3.11). A window's mask and its largest slice
# take about 1.5 * _R1_WINDOW bytes.
_R1_WINDOW = 2**20


def _unit_residue(n: int, primes: list[int], k: int) -> int:
    """The least x with k units of Z_n in [0, x), for 0 <= k <= phi(n).

    primes are the primes of n. Bisection on #{u < x : gcd(u, n) = 1},
    which is the sum of mu(s) * ceil(x / s) over the 2^omega squarefree
    divisors s of n.
    """
    signed = [(1, 1)]  # (s, mu(s))
    for p in primes:
        signed += [(s * p, -m) for s, m in signed]
    low, high = 0, n
    while low < high:
        mid = (low + high) // 2
        if sum(m * -(-mid // s) for s, m in signed) >= k:
            high = mid
        else:
            low = mid + 1
    return low


def _r1_shard(n: int, lo: int, hi: int) -> int:
    """Sum of gcd(n, u - 1) over the units u of index lo..hi-1, lo < hi.

    See _fixed_point_sum_shard for the method.
    """
    fac = _factor(n)
    primes = [p for p, _ in fac]
    terms = [(1, 1)]  # (d, phi(d)) for each divisor d of n
    for p, e in fac:
        terms += [(d * p**k, f * (p - 1) * p ** (k - 1)) for d, f in terms for k in range(1, e + 1)]
    # each prime's pass appends its full power last, so terms ends with (n, phi(n))
    phi = terms[-1][1]
    a = 0 if lo == 0 else _unit_residue(n, primes, lo)
    b = n if hi == phi else _unit_residue(n, primes, hi)
    total = 0
    for w in range(a, b, _R1_WINDOW):
        size = min(_R1_WINDOW, b - w)
        mask = bytearray(b"\x01") * size  # mask[i]: is w + i a unit
        for p in primes:
            start = -w % p
            mask[start::p] = bytes(len(range(start, size, p)))
        total += mask.count(1)
        for d, f in terms[1:]:
            total += f * mask[(1 - w) % d :: d].count(1)
    return total


def _run_sum(n: int, run: int, term: tuple, start: int, stop: int) -> int:
    """Sum of g_r / ord(h c) over the elements start..stop-1 of a run of
    run = n or n^2 elements.

    term is (g_r, then d_i, base, sp, sq for each cokernel row with
    d_i > 1). Element e = p n + q of the run has the component
    base + p sp + q sq in row i, and its order is the lcm over the rows of
    d_i / gcd(d_i, component); the orders are summed once per distinct
    value. A clipped span takes a gcd per element and row. A full run
    builds each row's orders from lines: the n orders along q repeat with
    period d_i / gcd(d_i, sq), and the lines along p with period
    d_i / gcd(d_i, sp), so a row takes at most d_i^2 gcds.
    """
    g_r = term[0]
    orders = None
    for t in range(1, len(term), 4):
        di, base, sp, sq = term[t : t + 4]
        if stop - start < run:
            column = [di // gcd(di, base + e // n * sp + e % n * sq) for e in range(start, stop)]
        else:
            per_q, per_p = di // gcd(di, sq), min(di // gcd(di, sp), run // n)
            column = []
            for p in range(per_p):
                line = [di // gcd(di, base + p * sp + q * sq) for q in range(per_q)]
                column += line * (n // per_q)
            column *= run // n // per_p
        orders = column if orders is None else list(map(lcm, orders, column))
    if orders is None:
        return g_r * (stop - start)
    return sum(g_r // o * orders.count(o) for o in set(orders))


def _fixed_point_sum_shard(args: tuple[int, int, int, int]) -> int:
    """Sum of |X^g| over the elements lo..hi-1.

    With M = A - I over Z_n, M' its leading (r-1) x (r-1) block, c the last
    column above the diagonal, g_r = gcd(n, a_rr - 1) and h = n / g_r:

        |X^g| = |ker M'| * g_r / ord(h c in coker M')

    because x_r = t h for t in Z_{g_r}, and x' then exists (in |ker M'|
    ways) exactly when t h c lies in the image of M'. The last enumeration
    digit (r = 2) or two (r >= 3) are entries of c, so a lead (the cells
    before them) fixes a run of n or n^2 elements. Row i of U gives element
    (p, q) of a run (q its last digit) the component (base + p sp + q sq)
    mod d_i, where base, sp and sq are h times row i of U against the
    fixed entries of c and its last two positions.

    A run's sum depends on its lead only through M', the fixed entries of
    c and g_r, not through a_rr itself (the substitution step in Sury's
    Burnside proof of Menon's identity). Three tables follow from that:

      * the leads that share the diagonal of M' (a block) are contiguous,
        and within a block each distinct M' is reduced once;
      * within a block a_rr is the most significant digit left, so each
        unit a_rr owns a contiguous sub-block of leads, whose sum depends
        on a_rr only through g_r, listed once per call for each unit. A
        block wholly inside [lo, hi) visits only the first sub-block of
        each class and jumps from there, unread, to the next class's
        first, adding count times class sum for the sub-blocks in between.
        In a clipped block, a sub-block wholly inside [lo, hi) whose class
        the block has summed adds that sum, and its leads are skipped;
      * a full run's sum is prod(d) times a sum fixed by g_r and the terms
        (d_i, base, sp, sq) of each row with d_i > 1, so that sum is kept
        for the call, keyed by those terms as one flat tuple, and computed
        only the first time they occur.

    A run clipped by a shard bound, and so every single-element call, is
    summed element by element (_run_sum over its span). The cells positions
    of the strict entries of M' and of the fixed entries of c come from
    _cell once per call.

    For n = 1 the term is 1: Z_1^r is the one vector, and the one element
    fixes it, so the shard returns hi - lo without a lead.

    For r = 1 the term is gcd(n, u - 1), and gcd(n, u - 1) is the sum of
    phi(d) over the divisors d of n that divide u - 1 (Gauss). Swapping the
    two sums, the shard sums phi(d) times the number of its units
    u = 1 (mod d), for each d | n. Those counts come from a scan, never
    from a formula: the shard's unit indices lo..hi-1 are the units among
    the residues [a, b), and those are read one window of _R1_WINDOW
    residues at a time, as a segmented sieve does (Bays and Hudson, BIT 17,
    1977). A window's coprime mask has the multiples of each prime of n
    struck out, and the count for d is the number of 1s in its slice
    starting at the first residue = 1 (mod d), with step d. a and b come
    from a bisection on the count of units below x (_unit_residue), except
    that a = 0 when lo = 0 and b = n when hi = phi(n). No gcd is taken and
    no int is made per unit; memory is O(_R1_WINDOW + tau(n)) for any n,
    and a shard reads only its own residues.
    """
    n, r, lo, hi = args
    if lo >= hi:
        return 0
    if r == 1:
        return _r1_shard(n, lo, hi)
    if n == 1:  # no lead walk: it builds O(r^2) cells, a block and U, and r <= 10^4 is admitted
        return hi - lo
    k = r - 1
    tail = 1 if r == 2 else 2  # trailing digits, all entries of c
    run = n**tail
    sub = n ** (r * k // 2 - tail)  # leads per a_rr: one per value of the lead's strict digits
    strict = [_cell(r, i, j) for i in range(k) for j in range(i + 1, k)]  # M' above its diagonal
    fixed_at = [_cell(r, i, k) for i in range(k - tail)]  # c's entries in the lead
    pools = _pools(n, r)
    cls = [gcd(n, u - 1) for u in pools[0]]  # g_r of each unit index of a_rr
    span = len(cls) * sub  # leads per block
    jumps: dict = {}  # a class's first unit index -> {g_r: units} up to the next class's
    seen = set()
    for i, g in enumerate(cls):
        if g in seen:
            gap[g] = gap.get(g, 0) + 1
        else:
            seen.add(g)
            gap = jumps[i] = {}
    first = lo // run
    leads = islice(_product_from(pools[:-tail], first), -(-hi // run) - first)
    total = 0
    block = None
    reduced: dict = {}  # strict entries of M' -> (d, U), within the block
    classes: dict = {}  # g_r -> sum over a whole a_rr sub-block, within the block
    terms: dict = {}  # (g_r, d_i, base, sp, sq, ...) -> a full run's sum before the factor prod(d), within the call
    b = first - 1
    for lead in leads:
        b += 1
        if b % sub == 0 or b == first:  # a new a_rr, and perhaps a new block
            if lead[:k] != block:
                block = lead[:k]
                whole = b % span == 0 and lo <= b * run and (b + span) * run <= hi
                reduced.clear()
                classes.clear()
            a = b // sub % len(cls)  # a_rr's unit index
            g_r = cls[a]
            h = n // g_r
            mark = None  # total at the start of a sub-block wholly inside [lo, hi)
            if b % sub == 0 and lo <= b * run and (b + sub) * run <= hi:
                if g_r in classes:
                    total += classes[g_r]
                    next(islice(leads, sub - 1, sub - 1), None)
                    b += sub - 1
                    continue
                mark = total
        entries = tuple(map(lead.__getitem__, strict))
        if entries not in reduced:
            reduced[entries] = _cokernel(n, _leading_block(n, r, lead, k))
        d, U = reduced[entries]
        fixed = list(map(lead.__getitem__, fixed_at))
        term = [g_r]
        for row, di in zip(U, d):
            if di > 1:
                base = h * sum(map(mul, row, fixed)) % di
                term += (di, base, h * row[-2] % di if tail == 2 else 0, h * row[-1] % di)
        term = tuple(term)
        offset = b * run
        if lo <= offset and offset + run <= hi:
            part = terms.get(term)
            if part is None:
                part = terms[term] = _run_sum(n, run, term, 0, run)
        else:
            part = _run_sum(n, run, term, max(lo - offset, 0), min(hi - offset, run))
        total += prod(d) * part
        if mark is not None and b % sub == sub - 1:
            classes[g_r] = total - mark
            if whole and (gap := jumps[a]):  # jump to the sub-block of the next new class
                total += sum(c * classes[g] for g, c in gap.items())
                skip = sum(gap.values()) * sub
                next(islice(leads, skip, skip), None)
                b += skip
    return total


def _serve(conn, parent_ends) -> None:
    """A pool worker: run each (fn, args) that arrives on `conn` and send
    back (True, result) or (False, (exception, traceback text)).

    A forked worker inherits the parent's ends of the pipes made so far,
    its own among them; it closes them, so that it reads EOF and returns
    once the parent is gone.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    for end in parent_ends:
        end.close()
    try:
        while True:
            fn, args = conn.recv()
            try:
                reply = True, fn(args)
            except Exception as exc:
                import traceback

                reply = False, (exc, traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError):
        return


class ProcessPoolExecutor:
    """Worker processes that each take one piece at a time over a pipe of
    their own; `map` returns the results in input order. It keeps the
    constructor of `concurrent.futures.ProcessPoolExecutor` and its `map`
    over one iterable.

    A piece costs one send and one receive. In concurrent.futures it also
    passes a feeder and a manager thread each way, and on a shared 2-vCPU
    host those hand-offs were about a quarter of a 2-shard sweep over
    small moduli, and most of its spread from run to run.

    multiprocessing is imported on first use, so a run whose sweeps all
    run in-process (see fixed_point_sum) starts without it. The workers
    are daemonic: multiprocessing stops them when the parent exits. The
    name stays a module attribute so that callers can rebind it to count
    or fake the pools that `_pool` builds.
    """

    def __init__(self, max_workers: int) -> None:
        import multiprocessing

        self._conns = []
        for _ in range(max_workers):
            mine, theirs = multiprocessing.Pipe()
            self._conns.append(mine)
            multiprocessing.Process(target=_serve, args=(theirs, self._conns), daemon=True).start()
            theirs.close()

    def map(self, fn, items) -> list:
        # Pieces go out in rounds of one per worker. Every reply of a round
        # is read before a failure is raised, so that no stale reply is left
        # to answer the next round.
        items = list(items)
        results = []
        for start in range(0, len(items), len(self._conns)):
            batch = list(zip(self._conns, items[start : start + len(self._conns)]))
            for conn, item in batch:
                conn.send((fn, item))
            replies = [conn.recv() for conn, _ in batch]
            for ok, value in replies:
                if not ok:
                    exc, text = value
                    raise exc from RuntimeError(f"in a pool worker:\n{text}")
            results += [value for _, value in replies]
        return results


@cache
def _pool(workers: int):
    # One pool per worker count for the life of the process: a sweep over
    # many small moduli would otherwise spend its time starting workers.
    return ProcessPoolExecutor(max_workers=workers)


def _cpus() -> int:
    # the CPUs this process may run on (a taskset or cpuset narrows them),
    # where the platform can say; else all of them
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The least sweep estimate |G| * r^2 whose shards run on the pool: an
# unverified bound (see fixed_point_sum), not a measured break-even.
_POOL_MIN_OPS = 2**22


def fixed_point_sum(n: int, r: int, budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Sum of |X^g| over the whole group, the left-hand side of the identity.

    The index space is split into min(shards, |G|) contiguous ranges (more
    would only add empty ones, which sum to 0); each shard is a pure fold
    and the shard totals are summed in shard order, so the result is
    identical for every shard count, wherever the shards run.

    Shards run on a shared pool of min(shards, CPUs) workers only when
    that is two workers or more and the estimate |G| * r^2 is at least
    _POOL_MIN_OPS = 2^22; otherwise they run one after another in this
    process. The floor keeps every sharded sweep of the benchmark (n <= 60
    at r = 2, the largest (59, 2) at 793904) off the pool, which would
    cost a process about 20 ms to start (importing multiprocessing,
    forking two workers) and more at exit. Where past the floor the pool
    starts to pay is unverified: no benchmark workload runs a sharded
    sweep there, and the bound rests on warm-pool timings only. In-process
    medians of 7 on a 2-vCPU host, inline against a warm 2-shard pool:
    (59, 2) 0.9 against 1.1 ms; (103, 2), the first r = 2 sweep at the
    floor, 1.5 against 1.7 ms; (151, 2) 2.1 against 2.4 ms, so at r = 2
    even a warm pool loses; (6, 4) 139 against 109 ms; (5, 4) 534 against
    306 ms; but (13, 3), at 8 times the floor, 19 against 20 ms.

    The budget estimate is |G| * r^2, which at r = 1 is phi(n). The r = 1
    kernel scans residues, not units: n of them, and n <= 7.21 * phi(n)
    for every n <= 2^63 - 1 (n / phi(n) is largest at the primorial
    614889782588491410, where it is 7.2096).
    """
    size = _admit_sweep(f"group sweep(n={n}, r={r})", n, r, budget)
    pieces = [(n, r, lo, hi) for lo, hi in _shard_bounds(size, min(shards, size))]
    if size * r * r >= _POOL_MIN_OPS and (workers := min(shards, _cpus())) > 1:
        return sum(_pool(workers).map(_fixed_point_sum_shard, pieces))
    return sum(map(_fixed_point_sum_shard, pieces))


def orbit_count_burnside(n: int, r: int, budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Number of orbits: the fixed-point sum divided (exactly) by |G|."""
    total = fixed_point_sum(n, r, budget=budget, shards=shards)
    size = group_size(n, r)
    orbits, rem = divmod(total, size)
    if rem:
        raise AssertionError(
            f"fixed-point sum {total} is not divisible by |G| = {size}: implementation bug"
        )
    return orbits


def _unit_generators(n: int) -> list[int]:
    """A generating set of the unit group (Z_n)^*: walk the units ascending
    and keep each one outside the subgroup the earlier picks generate."""
    gens: list[int] = []
    subgroup = {1 % n}
    for u in units(n):
        if u in subgroup:
            continue
        gens.append(u)
        # <H, u> is the union of the cosets H u^k, up to the first power in H
        grown = set(subgroup)
        power = u
        while power not in subgroup:
            grown.update(h * power % n for h in subgroup)
            power = power * u % n
        subgroup = grown
    return gens


def _generators(n: int, r: int) -> list[UpperTriangularMatrix]:
    """A generating set of the group, each the identity with one cell changed:
    diag(1, .., u, .., 1) for each position and each unit generator u, then
    the transvections E_ij(1), i < j.

    Every element is a diagonal matrix times a unipotent one; the first
    kind generate the diagonal matrices, the second the unipotent ones.
    """
    base = UpperTriangularMatrix.identity(n, r).cells
    unit_gens = _unit_generators(n)
    changes = [(i, u) for i in range(r) for u in unit_gens]
    changes += [(_cell(r, i, j), 1 % n) for i in range(r) for j in range(i + 1, r)]
    return [
        UpperTriangularMatrix(n=n, r=r, cells=base[:t] + (v,) + base[t + 1 :])
        for t, v in changes
    ]


def orbits_brute_force(n: int, r: int, budget: int = DEFAULT_BUDGET) -> list[tuple[tuple[int, ...], ...]]:
    """Partition Z_n^r into orbits by union-find over (g, x) pairs, with g
    running over a generating set of the group.

    A partition is closed under the group exactly when it is closed under
    a generating set, so one pass over Z_n^r per generator suffices (the
    standard orbit algorithm; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.1). Deliberately independent of the
    divisor-chain invariant and of the gcd-tower formula: the only
    ingredients are the raw group action and a disjoint-set forest. Blocks
    are returned lexicographically sorted.
    """
    op = f"orbits_brute_force(n={n}, r={r})"
    _check_floor(op, n, r, budget)  # n^r >= 2^r
    size = group_size(n, r)
    space = n**r
    # n^r r^2 <= budget bounds n before units(n) is walked for the generators
    _check_budget(op, space * r * r, budget, size)
    # len(_generators(n, r)), counted before any generator is built
    count = r * len(_unit_generators(n)) + r * (r - 1) // 2
    _check_budget(op, count * space * r * r, budget, size)
    gens = _generators(n, r)

    parent = list(range(space))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    vectors = list(product(range(n), repeat=r))
    for g in gens:
        rows = g.rows()
        for xi, x in enumerate(vectors):
            yi = 0
            for i in range(r):
                s = 0
                row = rows[i]
                for j in range(i, r):
                    s += row[j] * x[j]
                yi = yi * n + s % n
            ra, rb = find(xi), find(yi)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra

    blocks: dict[int, list[tuple[int, ...]]] = {}
    for xi, x in enumerate(vectors):
        blocks.setdefault(find(xi), []).append(x)
    return sorted(tuple(sorted(b)) for b in blocks.values())


def divisor_chain(x: ResidueVector) -> DivisorChain:
    """The orbit invariant of x: successive quotient orders read from the
    bottom coordinate up.

    Walking k = 1..r with h_0 = n and h_k = gcd(h_{k-1}, x_{r-k+1}), the
    k-th value is h_{k-1} / h_k: the order of the next coordinate in the
    cyclic quotient of Z_n by everything below it.
    """
    h = x.n
    values = []
    for k in range(x.r):
        nh = gcd(h, x.coords[x.r - 1 - k])
        values.append(h // nh)
        h = nh
    return DivisorChain(n=x.n, r=x.r, values=tuple(values))


def count_chains(n: int, r: int) -> int:
    """Count all valid divisor chains by nested divisor enumeration.

    ways[k] counts the chains of modulus m = divs[k] at the current length;
    each of the r levels prepends a value v | m to the chains of m / v, and
    as v runs over the divisors of m so does m / v, so a level sums ways
    over the divisors of m. Those are found once per call by filtering n's
    own divisor list for the v with m % v == 0, in tau(n)^2 steps, and
    linked by position. Memory is those links, tau_2(n) positions, and a
    count per divisor of n, for any r.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    divs = divisors(n)
    links = [[k for k, v in enumerate(divs) if m % v == 0] for m in divs]
    ways = [1] * len(divs)
    for _ in range(r):
        ways = [sum(map(ways.__getitem__, row)) for row in links]
    return ways[-1]
