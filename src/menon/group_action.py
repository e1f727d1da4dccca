"""The group of invertible upper-triangular r x r matrices over Z_n, its
action on the column space Z_n^r, direct fixed-point counting, the
fixed-point sweep and its elimination routine, Burnside orbit counting,
orbit partitioning by the breadth-first orbit algorithm over a generating
set, and the divisor-chain orbit invariant.

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
from collections import Counter, namedtuple
from functools import cache
from itertools import compress, islice, product
from math import gcd, lcm, prod
from operator import mul

from .arith import _factor, divisors, euler_phi

# Default cap on estimated elementary operations for any enumerating call.
DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised instead of starting an enumeration whose estimated cost is too big.

    group_size is |G| when the refused work is one of the group's own
    operations (a sweep, a direct fixed-point count, the orbit pass) and
    None for the CLI's factorizing and divisor-table checks; estimated_ops
    and group_size are both None when a lower bound refused the work
    before either was computed (_check_floor).
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


def _check_budget(op: str, n: int, r: int, estimated_ops: int, budget: int, size: int | None = None) -> None:
    """Refuse op when its estimate exceeds the budget; size is |G| when op
    is one of the group's own operations, else None. op is a str.format
    template over n and r that only a refusal fills in, so an admitting
    check formats none."""
    if estimated_ops > budget:
        group = "" if size is None else f"group size {size}, "
        raise BudgetExceededError(
            f"{op.format(n=n, r=r)} refused: {group}estimated {estimated_ops} elementary "
            f"operations exceeds budget {budget}",
            estimated_ops=estimated_ops,
            budget=budget,
            group_size=size,
        )


def _check_floor(op: str, n: int, r: int, bits: int, budget: int) -> None:
    """Refuse work that costs at least 2^bits operations for n >= 2 once
    that bound alone exceeds the budget.

    It runs before the estimate and |G| are computed: for large r their
    digits alone can outgrow memory, or the decimal string a refusal
    prints. It refuses nothing that the full estimate would admit.
    """
    if n >= 2 and bits >= budget.bit_length():
        raise BudgetExceededError(
            f"{op.format(n=n, r=r)} refused: at least 2^{bits} elementary operations exceeds budget {budget}",
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


def _pools(n: int, r: int) -> list:
    # Digit pools in significance order (matches the cells layout).
    return [units(n)] * r + [range(n)] * (r * (r - 1) // 2)


def element_at(n: int, r: int, index: int) -> UpperTriangularMatrix:
    """The index-th group element in enumeration order (0-based).

    index is decoded one digit at a time, least significant first, over
    radix n for the strict digits and phi(n) for the diagonal ones;
    _unit_residue's bisection turns each diagonal digit k into the k-th
    unit, so no O(n) tuple of units is built."""
    size = group_size(n, r)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for group of size {size}")
    phi = euler_phi(n)
    cells = []
    for radix in [n] * (r * (r - 1) // 2) + [phi] * r:
        index, digit = divmod(index, radix)
        cells.append(digit)
    cells.reverse()
    primes = [p for p, _ in _factor(n)]
    diagonal = [_unit_residue(n, primes, k + 1) - 1 for k in cells[:r]]
    return UpperTriangularMatrix(n=n, r=r, cells=(*diagonal, *cells[r:]))


def _iter_cells(n: int, r: int, lo: int, hi: int):
    """The cells of the elements lo..hi-1 that exist, in enumeration order,
    as tuples."""
    return islice(product(*_pools(n, r)), lo, hi)


def _admit_sweep(op: str, n: int, r: int, budget: int) -> int:
    """Refuse op, a sweep of the group, when |G| * r^2 exceeds the budget; return |G|."""
    _check_floor(op, n, r, r * (r - 1) // 2, budget)  # |G| >= 2^(r(r-1)/2)
    size = group_size(n, r)
    _check_budget(op, n, r, size * r * r, budget, size)
    return size


def enumerate_group(n: int, r: int, budget: int = DEFAULT_BUDGET):
    """All group elements, exactly once, in the documented order.

    Refuses up front (BudgetExceededError) when the estimated sweep cost
    |G| * r^2 exceeds the budget.
    """
    size = _admit_sweep("enumerate_group({n}, {r})", n, r, budget)
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
    _check_budget("fixed_points_direct(n={n}, r={r})", n, r, cost, budget, group_size(n, r))
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


def _bezout(b: int, a: int) -> tuple[int, int, int, int]:
    # (x, y, a/g, b/g) with x a + y b = g = gcd(a, b), for a > 0, by one
    # Euclid on (b, a): (x, y) = (1, 0) when a | b, and g < a otherwise
    g, x, y, s, x1, y1 = b, 0, 1, a, 1, 0
    while s:
        q = g // s
        g, x, y, s, x1, y1 = s, x1, y1, g - q * s, x - q * x1, y - q * y1
    return x, y, a // g, b // g


def _cokernel(n: int, mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Cyclic decomposition of Z_n^k / (mat Z_n^k), for any k x k mat.

    Unimodular row and column operations bring mat, over Z_n, to a
    diagonal form D = U mat V, with the row operations tracked in U. Then
    the cokernel is the direct sum of Z/d_i with d_i = gcd(n, D_ii), so:

      * the kernel of mat over Z_n has prod(d) elements;
      * v lies in the image exactly when (U v)_i = 0 mod d_i for every i;
      * the order of v in the cokernel is lcm_i d_i / gcd(d_i, (U v)_i).

    U is returned reduced mod n, which every d_i divides.

    Entries are kept reduced mod n, and a pivot is read with 0 as n: the
    two are one residue, and n keeps Euclid's a > 0, so a zero pivot still
    takes steps and its factor is gcd(n, n) = n. For each t a round is a
    pass of column steps, which clears row t right of the pivot, then a
    pass of row steps, mirrored in U, which clears column t below it. A
    step on the pivot a and an entry b takes x a + y b = g = gcd(a, b) from
    one Euclid on (b, a): a column step multiplies columns t and j by
    [[x, -b/g], [y, a/g]], taking row t's pair to (g, 0), and a row step
    multiplies rows t and i by the transpose [[x, y], [-b/g, a/g]], taking
    column t's pair to (g, 0). Both have determinant 1. A row step with
    y != 0 refills row t, so the rounds repeat until row t is clear; column
    t below stays clear, since each row step touches only rows t and i.

    Euclid runs on (b, a) so that a | b gives (x, y) = (1, 0), a plain
    subtraction that leaves the pivot's own row and column alone. Any
    Bezout pair would clear the entry, but not every one ends the rounds:
    mod 2, on [[1, 1], [0, 1]], the pair (0, 1) for (1, 1) turns the block
    into [[1, 0], [1, 1]] by a column step and back by a row step, forever.
    With (1, 0) a round whose steps are all subtractions ends the pivot,
    and any other step shrinks it to a proper divisor g of a, which a
    pivot of at most n can do only finitely often. A round that leaves
    row t uncleared without shrinking the pivot raises, so a broken step
    fails instead of looping.
    """
    k = len(mat)
    mat = [[v % n for v in row] for row in mat]
    U = [[1 % n if i == j else 0 for j in range(k)] for i in range(k)]
    for t in range(k):
        pivot_row = mat[t]
        while True:
            last = pivot_row[t] or n
            for j in range(t + 1, k):
                if b := pivot_row[j]:
                    x, y, p, q = _bezout(b, pivot_row[t] or n)
                    for row in mat[t:]:
                        row[t], row[j] = (x * row[t] + y * row[j]) % n, (p * row[j] - q * row[t]) % n
            for i in range(t + 1, k):
                if b := mat[i][t]:
                    x, y, p, q = _bezout(b, pivot_row[t] or n)
                    for top, row in ((pivot_row, mat[i]), (U[t], U[i])):
                        for j in range(k):
                            top[j], row[j] = (x * top[j] + y * row[j]) % n, (p * row[j] - q * top[j]) % n
            if not any(pivot_row[t + 1 :]):
                break
            if (pivot_row[t] or n) >= last:
                raise AssertionError(f"elimination stalled at pivot {last} mod {n}")
    return [gcd(n, row[t]) for t, row in enumerate(mat)], U


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
    d_i / gcd(d_i, component). Each row's orders over the whole run are
    built from lines: the n orders along q repeat with period
    d_i / gcd(d_i, sq), and the lines along p with period
    d_i / gcd(d_i, sp), so a row takes at most d_i^2 gcds. The orders of
    start..stop-1 are then summed once per distinct value.
    """
    g_r = term[0]
    orders = None
    for t in range(1, len(term), 4):
        di, base, sp, sq = term[t : t + 4]
        per_q, per_p = di // gcd(di, sq), min(di // gcd(di, sp), run // n)
        column = []
        for p in range(per_p):
            line = [di // gcd(di, base + p * sp + q * sq) for q in range(per_q)]
            column += line * (n // per_q)
        column *= run // n // per_p
        orders = column if orders is None else list(map(lcm, orders, column))
    if orders is None:
        return g_r * (stop - start)
    orders = orders[start:stop]
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
    Burnside proof of Menon's identity). The same holds for every diagonal
    entry over a whole block: for a diagonal unit matrix W, ker W(A - I) =
    ker(A - I), and two units whose a - 1 share gcd(n, a - 1) differ in
    a - 1 by a unit factor w, while w a_ij runs over Z_n as a_ij does. So
    the sum over a block's strict entries depends on its diagonal only
    through the classes gcd(n, a_ii - 1), and these tables serve the walk:

      * the leads that share the diagonal of M' (a block) are contiguous,
        and within a block each distinct M' is reduced once;
      * a block wholly inside [lo, hi) is not walked when the head loop
        meets it: it is counted under the tuple of its head's classes,
        and the first head with that tuple is kept with its start. After
        the loop each kept head is walked once, and its sum is weighted by
        the number of blocks that share its tuple;
      * within a block a_rr is the most significant digit left, so each
        unit a_rr owns a contiguous sub-block of leads, and the sub-blocks
        differ only in a_rr. A kept head walks its first sub-block once per
        class of g_r, with that class's g_r, and adds the class's number of
        units times its sum. A block cut by lo or hi walks every sub-block
        it meets. Each unit's class is one gcd, taken once per call into a
        table that gives both the head classes and the count of units per
        g_r class;
      * a full run's sum is prod(d) times a sum fixed by g_r and the terms
        (d_i, base, sp, sq) of each row with d_i > 1, so that sum is kept
        for the call, keyed by those terms as one flat tuple, and computed
        only the first time they occur.

    A run clipped by a shard bound, and so every single-element call, sums
    the orders of its span only (_run_sum). An uncut sweep with C(n)
    classes of g walks C(n)^r * n^m leads, m = (r-1)(r-2)/2 + max(r-3, 0)
    being the lead digits after a_rr. The block heads are walked
    once per call, and the cells positions of the strict entries of M' and
    of the fixed entries of c come from _cell once per call.

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
    pools = _pools(n, r)
    us = pools[0]  # a_rr's pool
    rest = [tuple(pool) for pool in pools[r:-tail]]  # a lead's digits after a_rr; product takes a tuple uncopied
    sub = n ** len(rest)  # leads per a_rr sub-block
    strict = [_cell(r, i, j) - r for i in range(k) for j in range(i + 1, k)]  # M' above its diagonal, in rest
    fixed_at = [_cell(r, i, k) - r for i in range(k - tail)]  # c's entries in rest
    gs = [gcd(n, u - 1) for u in us]  # gcd(n, u - 1) of each unit, in pool order
    classes = Counter(gs)  # g_r -> units
    reduced: dict = {}  # strict entries of M' -> (d, U), within the block
    terms: dict = {}  # (g_r, d_i, base, sp, sq, ...) -> a full run's sum before the factor prod(d), within the call

    def walk(diagonal, g_r, start, j, stop):
        # the sum over leads j..stop-1 of the sub-block whose diagonal is
        # `diagonal` and whose first element is start
        h = n // g_r
        total = 0
        offsets = range(start + j * run, start + stop * run, run)
        for offset, digits in zip(offsets, islice(product(*rest), j, stop)):
            entries = tuple(map(digits.__getitem__, strict))
            if entries not in reduced:
                reduced[entries] = _cokernel(n, _leading_block(n, r, diagonal + digits, k))
            d, U = reduced[entries]
            fixed = list(map(digits.__getitem__, fixed_at))
            term = [g_r]
            for row, di in zip(U, d):
                if di > 1:
                    base = h * sum(map(mul, row, fixed)) % di
                    term += (di, base, h * row[-2] % di if tail == 2 else 0, h * row[-1] % di)
            term = tuple(term)
            if lo <= offset and offset + run <= hi:
                part = terms.get(term)
                if part is None:
                    part = terms[term] = _run_sum(n, run, term, 0, run)
            else:
                part = _run_sum(n, run, term, max(lo - offset, 0), min(hi - offset, run))
            total += prod(d) * part
        return total

    per = sub * run  # elements per sub-block
    span = len(us) * per  # elements per block
    first = lo // span
    heads = zip(
        range(first * span, hi, span),
        islice(product(*pools[:k]), first, None),
        islice(product(gs, repeat=k), first, None),  # each head's classes
    )
    whole: dict = {}  # a whole block's head classes -> [blocks, first head, its start]
    total = 0
    for start, head, key in heads:
        if lo <= start and start + span <= hi:
            whole.setdefault(key, [0, head, start])[0] += 1
            continue
        reduced.clear()
        for a in range(max(lo - start, 0) // per, min(-(-(hi - start) // per), len(us))):
            s = start + a * per
            j, stop = max(lo - s, 0) // run, min(-(-(hi - s) // run), sub)
            total += walk((*head, us[a]), gs[a], s, j, stop)
    for blocks, head, start in whole.values():
        reduced.clear()
        for g_r, count in classes.items():  # a lead's sum reads g_r, not a_rr
            total += blocks * count * walk((*head, us[0]), g_r, start, 0, sub)
    return total


def ProcessPoolExecutor(max_workers: int):
    """A multiprocessing.pool.Pool of max_workers forked workers; its `map`
    returns the results in input order and re-raises a worker's exception
    with the worker's traceback as its __cause__.

    multiprocessing is imported on first use, so a run whose sweeps all
    run in-process (see fixed_point_sum) starts without it. The workers
    ignore SIGINT, so Ctrl-C stays the parent's, and the pool is
    terminated at exit. The name stays a module attribute so that callers
    can rebind it to count or fake the pools that `_pool` builds.
    """
    import atexit
    import signal
    from multiprocessing.pool import Pool

    pool = Pool(max_workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    atexit.register(pool.terminate)
    return pool


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

    Shards run on a shared pool of min(shards, CPUs) workers only when
    that is two workers or more and the estimate |G| * r^2 is at least
    _POOL_MIN_OPS = 2^22. The index space is then split into one
    contiguous piece per worker: each piece rebuilds the kernel's per-call
    tables, so more pieces would only repeat that work. Each piece is a
    pure fold, summed in piece order, so the result is identical for
    every shard count. Otherwise the sweep is one kernel call in this
    process, whatever shards is. The floor keeps the benchmark's sharded
    sweeps (n <= 60 at r = 2, the largest (59, 2) at 793904) off the
    pool, which costs a process about 28 ms to start (importing
    multiprocessing, forking two workers; medians of 12 CLI runs of
    (103, 2), 2 shards against 1). Where past the floor the pool starts
    to pay is unverified: no benchmark workload runs a sharded sweep
    there, and the bound rests on warm-pool timings only. In one process
    on a shared 2-vCPU host, with the floor set to 0, inline against a
    warm pool of 2 workers, the middle of three medians of 15 calls:
    (59, 2) 0.12 against 0.74 ms; (103, 2), the first r = 2 sweep at the
    floor, 0.16 against 0.71 ms; (151, 2) 0.21 against 0.83 ms, so at
    r = 2 even a warm pool loses; (13, 3), at 8 times the floor, 2.0
    against 2.6 ms; (6, 4) 90 against 77 ms; (5, 4) 34 against 50 ms (a
    second run: (6, 4) 86 against 53 ms, (5, 4) 35 against 37 ms).

    The budget estimate is |G| * r^2, which at r = 1 is phi(n). The r = 1
    kernel scans residues, not units: n of them, and n <= 7.21 * phi(n)
    for every n <= 2^63 - 1 (n / phi(n) is largest at the primorial
    614889782588491410, where it is 7.2096).
    """
    if shards < 1:  # checked here: an in-process sweep never reaches _shard_bounds
        raise ValueError(f"shards must be >= 1, got {shards}")
    size = _admit_sweep("group sweep(n={n}, r={r})", n, r, budget)
    if size * r * r >= _POOL_MIN_OPS and (workers := min(shards, _cpus())) > 1:
        pieces = [(n, r, lo, hi) for lo, hi in _shard_bounds(size, workers)]
        return sum(_pool(workers).map(_fixed_point_sum_shard, pieces))
    return _fixed_point_sum_shard((n, r, 0, size))


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
    """Partition Z_n^r into orbits by the standard orbit algorithm (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 4.1): from
    each vector not yet seen, walking Z_n^r in ascending order, grow its
    orbit breadth-first under a generating set of the group.

    A set is closed under the group exactly when it is closed under a
    generating set, so each vector meets each generator once. Deliberately
    independent of the divisor-chain invariant and of the gcd-tower
    formula: the only ingredients are the raw group action and a
    breadth-first walk. Each orbit starts from its least vector and those
    come in ascending order, so the blocks, each sorted, are returned
    lexicographically sorted.
    """
    op = "orbits_brute_force(n={n}, r={r})"
    _check_floor(op, n, r, r, budget)  # n^r >= 2^r
    size = group_size(n, r)
    space = n**r
    # n^r r^2 <= budget bounds n before units(n) is walked for the generators
    _check_budget(op, n, r, space * r * r, budget, size)
    # len(_generators(n, r)), counted before any generator is built
    count = r * len(_unit_generators(n)) + r * (r - 1) // 2
    _check_budget(op, n, r, count * space * r * r, budget, size)
    gens = [g.rows() for g in _generators(n, r)]

    vectors = list(product(range(n), repeat=r))
    seen = bytearray(space)
    blocks = []
    for start, least in enumerate(vectors):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [least]
        for x in orbit:  # the list grows as the walk reaches new vectors
            for rows in gens:
                yi = 0
                for i in range(r):
                    s = 0
                    row = rows[i]
                    for j in range(i, r):
                        s += row[j] * x[j]
                    yi = yi * n + s % n
                if not seen[yi]:
                    seen[yi] = 1
                    orbit.append(vectors[yi])
        blocks.append(tuple(sorted(orbit)))
    return blocks


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
