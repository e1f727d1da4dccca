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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, islice, product
from math import gcd, lcm, prod

from .arith import divisors, euler_phi, factorize

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


def _check_budget(op: str, estimated_ops: int, budget: int, size: int) -> None:
    if estimated_ops > budget:
        raise BudgetExceededError(
            f"{op} refused: group size {size}, estimated {estimated_ops} elementary "
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


# r >= 2 sweeps and the orbit pass visit n in order, so a few entries keep
# every hit within one n while memory stays flat across a long range of
# moduli. The r = 1 sweep reads its units from its own gcd table instead.
@lru_cache(maxsize=8)
def units(n: int) -> tuple[int, ...]:
    """Residues in [0, n) coprime to n, ascending. units(1) = (0,)."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n!r}")
    # Sieve: strike out the multiples of each prime factor of n.
    coprime = bytearray(b"\x01") * n
    for p, _ in factorize(n):
        coprime[::p] = bytes(len(range(0, n, p)))
    return tuple(compress(range(n), coprime))


@cache
def _upper_index(r: int) -> tuple[tuple[int, ...], ...]:
    # Cell layout: cells[0:r] are the diagonal, then strict-upper entries
    # row-major. _upper_index(r)[i][j] is the cells index of entry (i, j), i < j.
    table = [[-1] * r for _ in range(r)]
    pos = r
    for i in range(r):
        for j in range(i + 1, r):
            table[i][j] = pos
            pos += 1
    return tuple(tuple(row) for row in table)


@dataclass(frozen=True)
class UpperTriangularMatrix:
    """Invertible upper-triangular matrix over Z_n.

    cells holds the diagonal first, then the strict upper triangle row-major;
    the strict lower triangle is implicitly zero. Diagonal entries must be
    units of Z_n and every stored entry lies in [0, n).
    """

    n: int
    r: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={self.n}, r={self.r}")
        expected = self.r * (self.r + 1) // 2
        if len(self.cells) != expected:
            raise ValueError(f"expected {expected} cells for r={self.r}, got {len(self.cells)}")
        if any(not 0 <= c < self.n for c in self.cells):
            raise ValueError(f"entries must lie in [0, {self.n}), got {self.cells}")
        for i in range(self.r):
            if gcd(self.n, self.cells[i]) != 1:
                raise ValueError(f"diagonal entry {self.cells[i]} is not a unit mod {self.n}")

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-based (row i, column j); zero below the diagonal."""
        if not (0 <= i < self.r and 0 <= j < self.r):
            raise IndexError(f"entry ({i}, {j}) out of range for r={self.r}")
        if i > j:
            return 0
        if i == j:
            return self.cells[i]
        return self.cells[_upper_index(self.r)[i][j]]

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


@dataclass(frozen=True)
class ResidueVector:
    """Element of Z_n^r: coordinates x_0..x_{r-1}, each in [0, n)."""

    n: int
    r: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={self.n}, r={self.r}")
        if len(self.coords) != self.r:
            raise ValueError(f"expected {self.r} coordinates, got {len(self.coords)}")
        if any(not 0 <= c < self.n for c in self.coords):
            raise ValueError(f"coordinates must lie in [0, {self.n}), got {self.coords}")


@dataclass(frozen=True)
class DivisorChain:
    """Orbit invariant: values (v_1..v_r) with v_1 | n and each subsequent
    v_k dividing the running quotient n / (v_1 ... v_{k-1})."""

    n: int
    r: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.r:
            raise ValueError(f"expected {self.r} chain values, got {len(self.values)}")
        remaining = self.n
        for k, v in enumerate(self.values):
            if v < 1 or remaining % v != 0:
                raise ValueError(
                    f"chain value {v} at position {k} does not divide the remaining quotient {remaining}"
                )
            remaining //= v


def group_size(n: int, r: int) -> int:
    """Order of the group: n^(r(r-1)/2) * phi(n)^r."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    return n ** (r * (r - 1) // 2) * euler_phi(n) ** r


def _pools(n: int, r: int) -> list:
    # Digit pools in significance order (matches the cells layout).
    us = units(n)
    return [us] * r + [range(n)] * (r * (r - 1) // 2)


def element_at(n: int, r: int, index: int) -> UpperTriangularMatrix:
    """The index-th group element in enumeration order (0-based)."""
    size = group_size(n, r)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for group of size {size}")
    pools = _pools(n, r)
    cells = [0] * len(pools)
    for t in range(len(pools) - 1, -1, -1):
        index, d = divmod(index, len(pools[t]))
        cells[t] = pools[t][d]
    return UpperTriangularMatrix(n=n, r=r, cells=tuple(cells))


def _iter_cells(n: int, r: int, lo: int, hi: int):
    """The cells of elements lo..hi-1 in enumeration order, as tuples."""
    return islice(product(*_pools(n, r)), lo, hi)


def enumerate_group(n: int, r: int, budget: int = DEFAULT_BUDGET):
    """All group elements, exactly once, in the documented order.

    Refuses up front (BudgetExceededError) when the estimated sweep cost
    |G| * r^2 exceeds the budget.
    """
    op = f"enumerate_group({n}, {r})"
    _check_floor(op, n, r * (r - 1) // 2, budget)  # |G| >= 2^(r(r-1)/2)
    size = group_size(n, r)
    _check_budget(op, size * r * r, budget, size)
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
    upper = _upper_index(r)
    return [
        [(cells[i] - 1) % n if i == j else (cells[upper[i][j]] if i < j else 0) for j in range(k)]
        for i in range(k)
    ]


def _cokernel(n: int, mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Cyclic decomposition of Z_n^k / (mat Z_n^k). Consumes mat.

    Integer row/column elimination (unimodular operations) brings mat to
    diagonal form D = U mat V, with the row operations tracked in U. Then
    the cokernel is the direct sum of Z/d_i with d_i = gcd(n, D_ii), so:

      * the kernel of mat over Z_n has prod(d) elements;
      * v lies in the image exactly when (U v)_i = 0 mod d_i for every i;
      * the order of v in the cokernel is lcm_i d_i / gcd(d_i, (U v)_i).

    U is returned reduced mod n, which every d_i divides.

    One smallest-pivot loop: each pass for t swaps the nonzero entry p of
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


def _fixed_point_sum_shard(args: tuple[int, int, int, int]) -> int:
    """Sum of |X^g| over the elements lo..hi-1.

    With M = A - I over Z_n, M' its leading (r-1) x (r-1) block, c the last
    column above the diagonal, g_r = gcd(n, a_rr - 1) and h = n / g_r:

        |X^g| = |ker M'| * g_r / ord(h c in coker M')

    because x_r = t h for t in Z_{g_r}, and x' then exists (in |ker M'|
    ways) exactly when t h c lies in the image of M'. The last enumeration
    digit (r = 2) or two (r >= 3) are entries of c, so a lead (the cells
    before them) fixes a run of n or n^2 elements whose (U h c)_i mod d_i
    is affine in those digits.

    A run's sum depends on its lead only through M', the fixed entries of
    c and g_r, not through a_rr itself (the substitution step in Sury's
    Burnside proof of Menon's identity). The leads that share the diagonal
    of M' form one contiguous block, so within a block each distinct M' is
    reduced once and each full run is summed once per (M', c, g_r). A run
    that a shard bound clips is summed element by element.

    For r = 1 the term is gcd(n, u - 1), read from a table over all
    residues: each divisor d > 1 of n, in ascending order, is written at
    every u = 1 (mod d), so the last write at u is the largest divisor of
    n that divides u - 1. Each d also strikes its multiples from a
    coprime mask, which picks out the units in enumeration order. No gcd
    is taken and no int is made per unit; the two tables take about 9
    bytes per residue.
    """
    n, r, lo, hi = args
    if r == 1:
        fixed, coprime = [1] * n, bytearray(b"\x01") * n
        for d in divisors(n)[1:]:
            fixed[1::d] = [d] * len(range(1, n, d))
            coprime[::d] = bytes(len(range(0, n, d)))
        return sum(islice(compress(fixed, coprime), lo, hi))
    k = r - 1
    tail = 1 if r == 2 else 2  # trailing digits, all entries of c
    run = n**tail
    ps = range(n) if tail == 2 else (0,)
    upper = _upper_index(r)
    strict = [upper[i][j] for i in range(k) for j in range(i + 1, k)]  # M' above its diagonal
    leads = product(*_pools(n, r)[:-tail])
    first = lo // run
    total = 0
    block = None
    reduced: dict = {}  # strict entries of M' -> (d, U), within the block
    run_sums: dict = {}  # (lead[k + 1:], g_r) -> sum over a full run, within the block
    for b, lead in enumerate(islice(leads, first, -(-hi // run)), first):
        if lead[:k] != block:
            block = lead[:k]
            reduced.clear()
            run_sums.clear()
        g_r = gcd(n, lead[k] - 1)
        start, stop = max(lo - b * run, 0), min(hi - b * run, run)
        full = start == 0 and stop == run
        if full:
            key = (lead[k + 1 :], g_r)
            part = run_sums.get(key)
            if part is not None:
                total += part
                continue
        entries = tuple(lead[t] for t in strict)
        if entries not in reduced:
            reduced[entries] = _cokernel(n, _leading_block(n, r, lead, k))
        d, U = reduced[entries]
        h = n // g_r
        fixed = [lead[upper[i][k]] for i in range(k - tail)]
        orders = [1] * run  # ord(h c) over the run, one component at a time
        for row, di in zip(U, d):
            if di == 1:
                continue
            base = h * sum(u * c for u, c in zip(row, fixed)) % di
            sp = h * row[-2] % di if tail == 2 else 0
            sq = h * row[-1] % di
            order_of = [di // gcd(di, w) for w in range(di)]
            column = [order_of[(base + p * sp + q * sq) % di] for p in ps for q in range(n)]
            orders = list(map(lcm, orders, column))
        part = prod(d) * sum(g_r // o for o in orders[start:stop])
        if full:
            run_sums[key] = part
        total += part
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

    multiprocessing is imported on first use, so an unsharded run starts
    without it. The workers are daemonic: multiprocessing stops them when
    the parent exits. The name stays a module attribute so that callers
    can rebind it to count or fake the pools that `_pool` builds.
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


def fixed_point_sum(n: int, r: int, budget: int = DEFAULT_BUDGET, shards: int = 1) -> int:
    """Sum of |X^g| over the whole group, the left-hand side of the identity.

    The index space is split into min(shards, |G|) contiguous ranges (more
    would only add empty ones, which sum to 0); each shard is a pure fold
    and the shard totals are summed in shard order, so the result is
    identical for every shard count. Shards run on a shared pool of at
    most min(shards, CPUs) workers.
    """
    op = f"group sweep(n={n}, r={r})"
    _check_floor(op, n, r * (r - 1) // 2, budget)  # |G| >= 2^(r(r-1)/2)
    size = group_size(n, r)
    _check_budget(op, size * r * r, budget, size)
    pieces = [(n, r, lo, hi) for lo, hi in _shard_bounds(size, min(shards, size))]
    if shards == 1:
        return _fixed_point_sum_shard(pieces[0])
    return sum(_pool(min(shards, os.cpu_count() or 1)).map(_fixed_point_sum_shard, pieces))


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
    upper = _upper_index(r)
    unit_gens = _unit_generators(n)
    changes = [(i, u) for i in range(r) for u in unit_gens]
    changes += [(upper[i][j], 1 % n) for i in range(r) for j in range(i + 1, r)]
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
    gens = _generators(n, r)
    _check_budget(op, len(gens) * space * r * r, budget, size)

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

    ways[m] counts the chains of modulus m at the current length; each of
    the r levels prepends a value v | m to the chains of m / v. Memory is
    a divisor list and a count per divisor of n, for any r.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    quotients = {m: divisors(m) for m in divisors(n)}
    ways = dict.fromkeys(quotients, 1)
    for _ in range(r):
        ways = {m: sum(ways[m // v] for v in links) for m, links in quotients.items()}
    return ways[n]
