"""Group enumeration, the action, fixed points, orbits and chain invariants.

The brute-force oracles here (naive matrix generation, dumb fixed-point
scans) are written against the mathematical definitions, independently of
the enumeration/odometer machinery under test.
"""

import ast
import gc
import random
import tracemalloc
from itertools import product
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon import group_action
from menon.arith import euler_phi, tau, tau_r_closed, tau_r_recursive
from menon.group_action import (
    BudgetExceededError,
    DivisorChain,
    ResidueVector,
    UpperTriangularMatrix,
    _cokernel,
    _fixed_point_sum_shard,
    _generators,
    _iter_cells,
    _shard_bounds,
    _unit_generators,
    apply,
    count_chains,
    divisor_chain,
    element_at,
    enumerate_group,
    fixed_point_sum,
    fixed_points_direct,
    group_size,
    matmul,
    orbit_count_burnside,
    orbits_brute_force,
    units,
)
from menon.identity import fixed_point_count_formula

# --- independent oracles ------------------------------------------------------


def naive_group(n, r):
    """Every invertible upper-triangular matrix, built entry by entry."""
    us = [a for a in range(n) if gcd(n, a) == 1]
    upper_slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
    out = []
    for diag in product(us, repeat=r):
        for vals in product(range(n), repeat=len(upper_slots)):
            rows = [[0] * r for _ in range(r)]
            for i in range(r):
                rows[i][i] = diag[i]
            for (i, j), v in zip(upper_slots, vals):
                rows[i][j] = v
            out.append(tuple(tuple(row) for row in rows))
    return out


def naive_fixed_count(n, r, rows):
    count = 0
    for x in product(range(n), repeat=r):
        if all(sum(rows[i][j] * x[j] for j in range(r)) % n == x[i] for i in range(r)):
            count += 1
    return count


def orbits_all_elements(n, r):
    """Orbit partition by union-find over every (g, x) pair, g running over
    the whole group: |G| n^r unions, the slow oracle for the generator pass."""
    vectors = list(product(range(n), repeat=r))
    index = {x: i for i, x in enumerate(vectors)}
    parent = list(range(len(vectors)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for rows in naive_group(n, r):
        for x in vectors:
            y = tuple(sum(rows[i][j] * x[j] for j in range(r)) % n for i in range(r))
            ra, rb = sorted((find(index[x]), find(index[y])))
            parent[rb] = ra
    blocks = {}
    for x in vectors:
        blocks.setdefault(find(index[x]), []).append(x)
    return sorted(tuple(sorted(b)) for b in blocks.values())


def sample_fixed_point_check(n, r, count, seed=0):
    """Check the factor product against the direct fixed-point count on
    `count` seeded-pseudorandomly sampled elements, for groups too big for
    the exhaustive check. Returns the sorted enumeration indices checked."""
    size = group_size(n, r)
    indices = sorted(random.Random(seed).sample(range(size), min(count, size)))
    for idx in indices:
        g = element_at(n, r, idx)
        assert fixed_point_count_formula(g) == fixed_points_direct(g), (n, r, idx)
    return indices


def closure(start, gens, mul):
    """Everything reached from start by right multiplication with gens."""
    reached = {start}
    frontier = reached
    while frontier:
        frontier = {mul(a, g) for a in frontier for g in gens} - reached
        reached |= frontier
    return reached


def mat(n, rows):
    return UpperTriangularMatrix.from_rows(n, rows)


def vec(n, coords):
    return ResidueVector(n=n, r=len(coords), coords=tuple(coords))


# strategy: a small matrix with a companion vector
@st.composite
def matrix_and_vector(draw, max_n=12, max_r=3):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, max_r))
    size = group_size(n, r)
    g = element_at(n, r, draw(st.integers(0, size - 1)))
    h = element_at(n, r, draw(st.integers(0, size - 1)))
    x = vec(n, [draw(st.integers(0, n - 1)) for _ in range(r)])
    return g, h, x


# --- sizes and enumeration ------------------------------------------------------


@pytest.mark.parametrize("n, r, expected", [(5, 1, 4), (2, 2, 2), (4, 2, 16), (1, 3, 1)])
def test_group_size_values(n, r, expected):
    assert group_size(n, r) == expected


def test_group_size_rejects_nonpositive():
    with pytest.raises(ValueError):
        group_size(0, 2)
    with pytest.raises(ValueError):
        group_size(3, 0)


def test_enumerate_group_2_2_exact():
    got = [g.rows() for g in enumerate_group(2, 2)]
    assert got == [((1, 0), (0, 1)), ((1, 1), (0, 1))]


def test_enumerate_group_units_of_3():
    assert [g.rows() for g in enumerate_group(3, 1)] == [((1,),), ((2,),)]


def test_enumerate_group_degenerate_modulus():
    elements = list(enumerate_group(1, 2))
    assert len(elements) == 1
    assert elements[0].rows() == ((0, 0), (0, 0))


@pytest.mark.parametrize(
    "n, r",
    [(n, r) for r, n_max in ((1, 40), (2, 12), (3, 6), (4, 3)) for n in range(1, n_max + 1)],
)
def test_enumeration_is_complete_and_duplicate_free(n, r):
    got = [g.rows() for g in enumerate_group(n, r)]
    assert len(got) == group_size(n, r)
    assert len(set(got)) == len(got)
    assert set(got) == set(naive_group(n, r))


def test_enumeration_count_on_larger_group():
    assert sum(1 for _ in enumerate_group(60, 2)) == group_size(60, 2) == 15360


def test_enumeration_order_is_stable_and_indexable():
    listed = list(enumerate_group(6, 2))
    assert [g.cells for g in enumerate_group(6, 2)] == [g.cells for g in listed]
    for idx in (0, 1, 7, len(listed) - 1):
        assert element_at(6, 2, idx) == listed[idx]
    with pytest.raises(IndexError):
        element_at(6, 2, len(listed))


# (n, r, lo, hi): whole groups, windows starting past 0, a window that
# crosses several carries, and empty ranges
@pytest.mark.parametrize(
    "n, r, lo, hi",
    [
        (7, 1, 0, 6),
        (12, 1, 1, 3),
        (4, 2, 0, 16),
        (5, 2, 7, 61),
        (3, 3, 0, 216),
        (4, 3, 100, 400),
        (2, 4, 0, 64),
        (3, 4, 5000, 5400),
        (3, 3, 17, 17),
        (5, 2, 80, 80),
    ],
)
def test_iter_cells_walks_the_decoded_index_range(n, r, lo, hi):
    assert list(_iter_cells(n, r, lo, hi)) == [element_at(n, r, i).cells for i in range(lo, hi)]


def test_enumerate_group_refuses_over_budget():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_group(100, 4, budget=1000)
    assert err.value.group_size == group_size(100, 4)
    assert str(err.value.group_size) in str(err.value)


# --- matrix/vector types ----------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        UpperTriangularMatrix(n=4, r=2, cells=(2, 1, 0))  # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        UpperTriangularMatrix(n=4, r=2, cells=(1, 1, 7))  # entry out of range
    with pytest.raises(ValueError):
        UpperTriangularMatrix(n=4, r=2, cells=(1, 1))  # wrong cell count
    with pytest.raises(ValueError):
        mat(4, [[1, 0], [2, 1]])  # nonzero below diagonal


def test_matrix_entry_and_rows_roundtrip():
    g = mat(10, [[3, 4, 5], [0, 7, 8], [0, 0, 9]])
    assert g.entry(0, 1) == 4 and g.entry(1, 2) == 8 and g.entry(2, 0) == 0
    assert g.rows() == ((3, 4, 5), (0, 7, 8), (0, 0, 9))
    with pytest.raises(IndexError):
        g.entry(0, 3)


def test_vector_validation():
    with pytest.raises(ValueError):
        ResidueVector(n=3, r=2, coords=(0, 3))
    with pytest.raises(ValueError):
        ResidueVector(n=3, r=2, coords=(0,))


def test_divisor_chain_invariant_enforced():
    DivisorChain(n=12, r=2, values=(2, 6))
    with pytest.raises(ValueError):
        DivisorChain(n=12, r=2, values=(5, 1))
    with pytest.raises(ValueError):
        DivisorChain(n=12, r=2, values=(2, 8))  # 8 does not divide 12/2


# --- the action --------------------------------------------------------------------


def test_apply_hand_examples():
    assert apply(mat(2, [[1, 1], [0, 1]]), vec(2, (0, 1))).coords == (1, 1)
    # (3*1 + 2*2, 3*2) mod 4 = (3, 2)
    assert apply(mat(4, [[3, 2], [0, 3]]), vec(4, (1, 2))).coords == (3, 2)


def test_apply_identity_fixes_everything():
    for n, r in ((1, 2), (4, 2), (5, 3)):
        identity = UpperTriangularMatrix.identity(n, r)
        for coords in product(range(n), repeat=r):
            assert apply(identity, vec(n, coords)).coords == coords


def test_apply_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        apply(mat(4, [[1, 0], [0, 1]]), vec(5, (0, 0)))
    with pytest.raises(ValueError):
        apply(mat(4, [[1, 0], [0, 1]]), vec(4, (0, 0, 0)))


@settings(max_examples=150)
@given(gh_x=matrix_and_vector())
def test_action_is_compatible_with_matrix_product(gh_x):
    g, h, x = gh_x
    assert apply(g, apply(h, x)) == apply(matmul(g, h), x)


def test_matmul_rejects_mismatch():
    with pytest.raises(ValueError):
        matmul(mat(4, [[1, 0], [0, 1]]), mat(5, [[1, 0], [0, 1]]))


# --- fixed points --------------------------------------------------------------------


def test_fixed_points_direct_hand_examples():
    assert fixed_points_direct(UpperTriangularMatrix.identity(3, 2)) == 9
    assert fixed_points_direct(mat(2, [[1, 1], [0, 1]])) == 2
    assert fixed_points_direct(mat(4, [[3, 2], [0, 3]])) == 4


def test_fixed_points_direct_refuses_over_budget():
    g = UpperTriangularMatrix.identity(100, 3)
    with pytest.raises(BudgetExceededError):
        fixed_points_direct(g, budget=10)


@pytest.mark.parametrize("n, r", [(n, 2) for n in range(1, 9)] + [(n, 3) for n in range(1, 5)])
def test_formula_equals_direct_count_exhaustively(n, r):
    for g in enumerate_group(n, r):
        direct = naive_fixed_count(n, r, g.rows())
        assert fixed_point_count_formula(g) == direct
        assert fixed_points_direct(g) == direct


def test_sampled_cross_check_is_deterministic_and_passes():
    first = sample_fixed_point_check(9, 3, 40, seed=7)
    again = sample_fixed_point_check(9, 3, 40, seed=7)
    assert first == again and len(first) == 40
    assert sample_fixed_point_check(9, 3, 40, seed=8) != first


def test_sampled_cross_check_caps_at_group_size():
    assert len(sample_fixed_point_check(3, 1, 100, seed=0)) == group_size(3, 1)


def test_sampled_equivalence_on_instance_too_big_for_full_sweep():
    # group_size(10, 3) * 10^3 = 6.4e7 puts the exhaustive cross-check out
    # of reach; 1000 sampled elements stand in for it.
    assert group_size(10, 3) * 10**3 > 10**7
    checked = sample_fixed_point_check(10, 3, 1000, seed=0)
    assert len(checked) == 1000


# --- the sweep kernel ------------------------------------------------------------------


@settings(max_examples=200)
@given(k=st.integers(0, 4), data=st.data())
def test_cokernel_matches_brute_force_on_arbitrary_matrices(k, data):
    # k = 0 is the empty block that compute_dk reduces, k = 4 the leading
    # block of an r = 5 sweep; entries past +-n leave remainders, so a
    # pivot can take several passes
    n = data.draw(st.integers(1, 5 if k == 4 else 8))
    rows = [[data.draw(st.integers(-3 * n, 3 * n)) for _ in range(k)] for _ in range(k)]
    d, U = _cokernel(n, [row[:] for row in rows])
    space = list(product(range(n), repeat=k))

    def image_of(x):
        return tuple(sum(rows[i][j] * x[j] for j in range(k)) % n for i in range(k))

    image = {image_of(x) for x in space}
    assert prod(d) == sum(1 for x in space if not any(image_of(x)))
    for v in space:
        w = [sum(U[i][j] * v[j] for j in range(k)) for i in range(k)]
        assert all(wi % di == 0 for wi, di in zip(w, d)) == (v in image)
        order = next(t for t in range(1, n + 1) if tuple(t * x % n for x in v) in image)
        assert lcm(*(di // gcd(di, wi) for wi, di in zip(w, d))) == order


def sweep(n, r, lo, hi):
    return _fixed_point_sum_shard((n, r, lo, hi))


def clipped_sweep(n, r, lo, hi):
    """The sweep over [lo, hi), each run of one lead split between two
    calls: every run is clipped, so each element gets its own term, and
    every call starts with nothing reduced or summed."""
    run = n ** min(r - 1, 2)  # elements per lead: 1 (r = 1), n or n^2
    return sum(
        sweep(n, r, b, b + run - 1) + sweep(n, r, b + run - 1, b + run)
        for b in range(lo, hi, run)
    )


KERNEL_GRID = (
    [(n, 1) for n in range(1, 31)]
    + [(n, 2) for n in range(1, 13)]
    + [(n, 3) for n in range(1, 7)]
    + [(n, 4) for n in range(1, 4)]
)


@pytest.mark.parametrize("n, r", KERNEL_GRID)
def test_sweep_kernel_term_is_the_direct_count_for_every_element(n, r):
    for i in range(group_size(n, r)):
        assert sweep(n, r, i, i + 1) == fixed_points_direct(element_at(n, r, i)), i


def unit_gcd_sum(n, lo, hi):
    """The r = 1 sweep as a gcd per unit: the slow oracle for its table."""
    return sum(gcd(n, u - 1) for u in units(n)[lo:hi])


def test_r1_kernel_term_is_the_gcd_for_every_unit():
    for n in range(1, 201):
        for i, u in enumerate(units(n)):
            assert sweep(n, 1, i, i + 1) == gcd(n, u - 1), (n, u)


@settings(max_examples=300)
@given(n=st.integers(1, 5000), data=st.data())
def test_r1_kernel_agrees_with_the_gcd_oracle_on_any_range(n, data):
    phi = len(units(n))
    lo = data.draw(st.integers(0, phi))
    hi = data.draw(st.integers(lo, phi))
    for a, b in [(lo, hi), (lo, lo), (0, phi)]:
        assert sweep(n, 1, a, b) == unit_gcd_sum(n, a, b), (a, b)


def test_r1_sweep_makes_no_int_per_unit():
    # The gcd table and the coprime mask take 8 + 1 bytes per residue; a
    # units tuple and a gcd per unit would take about 42.
    n = 99991  # prime: every residue but 0 is a unit
    gc.collect()
    tracemalloc.start()
    try:
        assert fixed_point_sum(n, 1) == euler_phi(n) * tau(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n, peak / n


@settings(max_examples=200)
@given(r=st.integers(1, 4), data=st.data())
def test_sweep_kernel_splits_at_any_cut(r, data):
    n = data.draw(st.integers(1, {1: 40, 2: 10, 3: 6, 4: 3}[r]))
    size = group_size(n, r)
    lo, cut, hi = sorted(data.draw(st.integers(0, size)) for _ in range(3))
    assert sweep(n, r, lo, cut) + sweep(n, r, cut, hi) == sweep(n, r, lo, hi)


@pytest.mark.parametrize("n, r, run", [(4, 2, 4), (4, 3, 16)])
def test_sweep_kernel_splits_inside_every_inner_run(n, r, run):
    # the last one (r = 2) or two (r >= 3) digits form runs of n or n^2
    # elements that share one reduced leading block
    total = sweep(n, r, 0, 3 * run)
    for cut in range(3 * run + 1):
        assert sweep(n, r, 0, cut) + sweep(n, r, cut, 3 * run) == total


# (7, 3), (9, 3) and, in the grid, (5, 3) have fewer classes of
# g_r = gcd(n, a_rr - 1) than units; (5, 4) is cut to its first two
# diagonal blocks (|G| / phi^3 elements each) to keep the clipped side short.
@pytest.mark.parametrize(
    "n, r, hi",
    [(n, r, group_size(n, r)) for n, r in KERNEL_GRID + [(7, 3), (9, 3), (4, 4)]]
    + [(5, 4, 2 * group_size(5, 4) // 4**3)],
)
def test_full_runs_sum_as_their_elements_do(n, r, hi):
    # a full sweep reuses each block's reductions and run sums
    assert sweep(n, r, 0, hi) == clipped_sweep(n, r, 0, hi)


@pytest.mark.parametrize("n, r", [(9, 2), (9, 3), (4, 4)])
def test_each_distinct_leading_block_is_reduced_once(n, r, monkeypatch):
    calls = []

    def counted(n, mat):
        calls.append(1)
        return _cokernel(n, mat)

    monkeypatch.setattr(group_action, "_cokernel", counted)
    fixed_point_sum(n, r)
    k = r - 1  # phi(n)^k diagonal blocks, n^(k(k-1)/2) strict entries of M'
    assert len(calls) == len(units(n)) ** k * n ** (k * (k - 1) // 2)


# --- Burnside, orbits, chains ----------------------------------------------------------


@pytest.mark.parametrize("n, r, expected", [(6, 1, 4), (2, 2, 3), (12, 2, 18), (1, 3, 1)])
def test_orbit_count_burnside_values(n, r, expected):
    assert orbit_count_burnside(n, r) == expected


def test_orbit_count_equals_tau_of_modulus_for_unit_action():
    for n in range(1, 40):
        assert orbit_count_burnside(n, 1) == tau(n)


def test_orbits_brute_force_2_2():
    assert orbits_brute_force(2, 2) == [((0, 0),), ((0, 1), (1, 1)), ((1, 0),)]


def test_orbits_brute_force_degenerate_and_units():
    assert orbits_brute_force(1, 3) == [((0, 0, 0),)]
    assert orbits_brute_force(3, 1) == [((0,),), ((1,), (2,))]


def test_orbits_brute_force_refuses_over_budget():
    with pytest.raises(BudgetExceededError) as err:
        orbits_brute_force(30, 2, budget=10**4)
    assert err.value.estimated_ops == len(_generators(30, 2)) * 30**2 * 2 * 2
    # for n = 40, r = 2 the all-element estimate |G| n^r r^2 is 6.6e7;
    # the 7 generators make it 44 800
    assert len(orbits_brute_force(40, 2)) == tau_r_closed(40, 2)
    assert len(orbits_brute_force(40, 2, budget=10**5)) == tau_r_closed(40, 2)


@pytest.mark.parametrize(
    "n, r",
    [(n, 1) for n in range(1, 31)]
    + [(n, 2) for n in range(1, 11)]
    + [(n, 3) for n in range(1, 5)]
    + [(n, 4) for n in range(1, 3)],
)
def test_generator_pass_equals_all_element_pass(n, r):
    assert orbits_brute_force(n, r) == orbits_all_elements(n, r)


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3), (4, 3)])
def test_generators_close_to_the_whole_group(n, r):
    reached = closure(UpperTriangularMatrix.identity(n, r), _generators(n, r), matmul)
    assert reached == set(enumerate_group(n, r))
    assert len(reached) == group_size(n, r)


def test_unit_generators_generate_the_unit_group():
    for n in range(1, 501):
        reached = closure(1 % n, _unit_generators(n), lambda a, u, n=n: a * u % n)
        assert reached == set(units(n)), n
    assert _unit_generators(300) == [7, 11, 13]


@pytest.mark.parametrize("n, r", [(n, 2) for n in range(1, 11)] + [(n, 3) for n in range(1, 5)])
def test_three_way_orbit_count_agreement(n, r):
    blocks = orbits_brute_force(n, r)
    assert sum(len(b) for b in blocks) == n**r
    assert len(blocks) == orbit_count_burnside(n, r)
    assert len(blocks) == count_chains(n, r) == tau_r_recursive(n, r)


@pytest.mark.parametrize(
    "n, coords, expected",
    [
        (4, (1, 2), (2, 2)),
        (4, (2, 0), (1, 2)),
        (6, (0, 0), (1, 1)),
        (12, (0, 0, 0), (1, 1, 1)),
    ],
)
def test_divisor_chain_values(n, coords, expected):
    assert divisor_chain(vec(n, coords)).values == expected


@given(
    n=st.integers(1, 60),
    coords=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
def test_divisor_chain_always_satisfies_nested_divisibility(n, coords):
    x = vec(n, [c % n for c in coords])
    chain = divisor_chain(x)  # DivisorChain.__post_init__ checks the invariant
    assert chain.n == n and chain.r == x.r
    remaining = n
    for v in chain.values:
        assert remaining % v == 0
        remaining //= v


@pytest.mark.parametrize("n, r", [(n, 2) for n in range(1, 11)] + [(n, 3) for n in range(1, 5)])
def test_chain_fibers_are_exactly_the_orbits(n, r):
    fibers = {}
    for coords in product(range(n), repeat=r):
        fibers.setdefault(divisor_chain(vec(n, coords)).values, []).append(coords)
    blocks = sorted(tuple(sorted(b)) for b in fibers.values())
    assert blocks == orbits_brute_force(n, r)


@pytest.mark.parametrize("n, r, expected", [(2, 2, 3), (12, 2, 18), (7, 1, 2), (1, 4, 1)])
def test_count_chains_values(n, r, expected):
    assert count_chains(n, r) == expected


@given(n=st.integers(1, 200), r=st.integers(1, 4))
def test_count_chains_matches_tau_r(n, r):
    assert count_chains(n, r) == tau_r_recursive(n, r)


def test_count_chains_memory_does_not_grow_with_r():
    # one count per divisor of 12, whatever r; a memo per level held 4.5 MB
    gc.collect()
    tracemalloc.start()
    try:
        assert count_chains(12, 5000) == tau_r_closed(12, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_count_chains_on_a_highly_composite_modulus():
    # 240 divisors and 7290 divisor links, summed over at each of 6 levels
    assert count_chains(720720, 6) == tau_r_closed(720720, 6)


# --- sharding -----------------------------------------------------------------------


def test_shard_bounds_partition_evenly():
    bounds = _shard_bounds(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]
    assert _shard_bounds(2, 5)[-1] == (2, 2)  # empty tail shards are fine
    with pytest.raises(ValueError):
        _shard_bounds(10, 0)


def test_fixed_point_sum_is_shard_invariant():
    single = fixed_point_sum(6, 3, shards=1)
    assert fixed_point_sum(6, 3, shards=2) == single
    assert fixed_point_sum(6, 3, shards=3) == single


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace the worker pool with one that runs shards in this process;
    yields the max_workers of every pool built."""
    made = []

    class FakePool:
        map = staticmethod(map)

        def __init__(self, max_workers):
            made.append(max_workers)

    monkeypatch.setattr(group_action, "ProcessPoolExecutor", FakePool)
    group_action._pool.cache_clear()
    yield made
    group_action._pool.cache_clear()


def test_sharded_sweeps_share_one_pool(fake_pools):
    sharded = [fixed_point_sum(n, 2, shards=2) for n in (5, 6)]
    assert sharded == [fixed_point_sum(n, 2) for n in (5, 6)]
    assert len(fake_pools) == 1


def test_pool_workers_are_capped_by_cpu_count(fake_pools, monkeypatch):
    monkeypatch.setattr(group_action.os, "cpu_count", lambda: 2)
    assert fixed_point_sum(6, 3, shards=64) == fixed_point_sum(6, 3, shards=1)
    assert fake_pools == [2]


def test_r1_shards_agree_with_the_gcd_oracle(fake_pools):
    for n in range(1, 301):
        expected = unit_gcd_sum(n, 0, len(units(n)))
        for s in range(1, 6):
            assert fixed_point_sum(n, 1, shards=s) == expected, (n, s)


def test_more_shards_than_elements_map_one_piece_per_element(fake_pools, monkeypatch):
    # 10^5 shards of an 80-element group would be mostly empty tuples
    single = fixed_point_sum(5, 2, shards=1)
    pieces = []

    def counted(args):
        pieces.append(args)
        return _fixed_point_sum_shard(args)

    monkeypatch.setattr(group_action, "_fixed_point_sum_shard", counted)
    assert fixed_point_sum(5, 2, shards=10**5) == single
    assert len(pieces) <= group_size(5, 2) == 80


def test_pool_map_keeps_input_order_over_several_rounds():
    pool = group_action.ProcessPoolExecutor(max_workers=2)
    assert pool.map(abs, range(-7, 0)) == [7, 6, 5, 4, 3, 2, 1]
    assert pool.map(abs, []) == []


def test_pool_worker_error_reaches_the_caller_and_leaves_no_stale_reply():
    pool = group_action.ProcessPoolExecutor(max_workers=2)
    with pytest.raises(ValueError) as err:
        pool.map(int, ["1", "x", "3"])
    assert "in a pool worker" in str(err.value.__cause__)
    assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]


def test_pool_workers_exit_once_the_parent_ends_are_closed():
    import multiprocessing

    before = set(multiprocessing.active_children())
    pool = group_action.ProcessPoolExecutor(max_workers=2)
    workers = set(multiprocessing.active_children()) - before
    assert len(workers) == 2
    for conn in pool._conns:
        conn.close()
    for worker in workers:
        worker.join(timeout=10)
        assert worker.exitcode == 0


def test_fixed_point_sum_refuses_over_budget():
    with pytest.raises(BudgetExceededError) as err:
        fixed_point_sum(100, 4, budget=1000)
    assert err.value.estimated_ops > 1000


@pytest.mark.parametrize(
    "count", [enumerate_group, fixed_point_sum, orbit_count_burnside, orbits_brute_force]
)
def test_large_r_is_refused_before_the_group_order_is_computed(count, monkeypatch):
    # |G(2, 100000)| has 1.5e9 decimal digits; its lower bound 2^(r(r-1)/2)
    # (2^r for n^r) refuses without it
    def no_group_size(n, r):
        raise AssertionError(f"group_size({n}, {r}) called")

    monkeypatch.setattr(group_action, "group_size", no_group_size)
    for n, r in [(10, 100), (2, 100000)]:
        with pytest.raises(BudgetExceededError) as err:
            count(n, r)
        assert err.value.estimated_ops is None and err.value.group_size is None


def test_lower_bound_refuses_nothing_the_estimate_admits():
    # n = 1 has a one-element group for every r
    assert fixed_point_sum(1, 100) == 1
    assert orbits_brute_force(1, 20) == [(tuple([0] * 20),)]
    # r(r-1)/2 = 28 bits is over the default budget, but the orbit pass
    # costs 28 generators * 2^8 * 8^2 = 458 752 operations
    assert len(orbits_brute_force(2, 8)) == tau_r_closed(2, 8)
    # a budget of exactly the sweep's estimate |G| r^2
    assert fixed_point_sum(2, 5, budget=2**10 * 5**2) == 2**10 * tau_r_closed(2, 5)


def test_units_ascending_and_degenerate():
    assert units(1) == (0,)
    assert units(12) == (1, 5, 7, 11)
    # the sieve against the gcd scan, the slow oracle
    for n in range(1, 2001):
        assert units(n) == tuple(a for a in range(n) if gcd(n, a) == 1), n


# --- module graph -------------------------------------------------------------------


def test_group_action_does_not_import_identity():
    # identity builds on group_action, never the reverse, lazily or not
    tree = ast.parse(Path(group_action.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert "identity" not in name.split("."), f"line {node.lineno} imports {name}"
