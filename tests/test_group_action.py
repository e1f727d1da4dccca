"""Group enumeration, the action, fixed points, orbits and chain invariants.

The brute-force oracles here (naive matrix generation, dumb fixed-point
scans) are written against the mathematical definitions, independently of
the enumeration/odometer machinery under test.
"""

import ast
import gc
import json
import os
import pickle
import random
import runpy
import signal
import subprocess
import sys
import tracemalloc
from functools import cache
from itertools import islice, product
from math import gcd, lcm, prod
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menon
from menon import group_action
from menon.arith import euler_phi, factorize, tau, tau_r_closed, tau_r_recursive
from menon.group_action import (
    BudgetExceededError,
    DivisorChain,
    ResidueVector,
    UpperTriangularMatrix,
    _cell,
    _cokernel,
    _cpus,
    _fixed_point_sum_shard,
    _generators,
    _iter_cells,
    _pools,
    _shard_bounds,
    _unit_generators,
    _unit_residue,
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

ROOT = Path(__file__).resolve().parent.parent

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
# crosses several carries, empty ranges and ranges past the end
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
        (5, 2, 80, 90),
        (4, 2, 20, 30),
        (3, 3, 210, 300),
    ],
)
def test_iter_cells_walks_the_decoded_index_range(n, r, lo, hi):
    # the documented order, walked from element 0 without a decode
    expected = list(islice(product(*_pools(n, r)), lo, hi))
    assert list(_iter_cells(n, r, lo, hi)) == expected
    indices = range(lo, min(hi, group_size(n, r)))
    assert [element_at(n, r, i).cells for i in indices] == expected


@settings(max_examples=300)
@given(r=st.integers(1, 4), data=st.data())
def test_element_at_and_iter_cells_decode_where_islice_does(r, data):
    # element_at's mixed-radix decode and _iter_cells' ranges, against the
    # product of the digit pools walked from element 0
    n = data.draw(st.integers(1, {1: 30, 2: 12, 3: 6, 4: 3}[r]))
    everything = list(product(*_pools(n, r)))
    size = len(everything)
    first = data.draw(st.integers(0, size - 1))
    last = data.draw(st.integers(first, size))
    assert list(_iter_cells(n, r, first, last)) == everything[first:last]
    assert list(_iter_cells(n, r, first, size + 1)) == everything[first:]
    for i in {first, last - 1, (first + last) // 2} - {-1}:
        assert element_at(n, r, i).cells == everything[i], i


def test_element_at_decodes_units_without_listing_them():
    # The diagonal digits are read by bisection on the count of units below
    # x, not from units(n): that tuple takes about 160 MiB at n = 10^7.
    for n in range(1, 301):
        us = units(n)
        assert [element_at(n, 1, k).cells for k in range(len(us))] == [(u,) for u in us], n
        for k in {0, len(us) ** 2 // 2, len(us) ** 2 - 1}:  # (a_11, a_22) by index
            i, j = divmod(k, len(us))
            assert [element_at(n, 2, k * n + x).cells for x in (0, n - 1)] == [
                (us[i], us[j], x) for x in (0, n - 1)
            ], (n, k)
    n = 10**7
    phi = euler_phi(n)
    gc.collect()
    tracemalloc.start()
    try:
        got = [element_at(n, 1, k).cells for k in (0, 1, phi - 1)]
        got += [element_at(n, 2, k).cells for k in (0, group_size(n, 2) - 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [(1,), (3,), (n - 1,), (1, 1, 0), (n - 1, n - 1, n - 1)]
    assert peak < 2**20, peak


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
    with pytest.raises(ValueError, match="square"):
        mat(4, [[1, 0], [1]])  # a short row
    for n, r, cells in [(0, 1, (1,)), (4, 0, ())]:
        with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
            UpperTriangularMatrix(n=n, r=r, cells=cells)


def test_matrix_entry_and_rows_roundtrip():
    g = mat(10, [[3, 4, 5], [0, 7, 8], [0, 0, 9]])
    assert g.entry(0, 1) == 4 and g.entry(1, 2) == 8 and g.entry(2, 0) == 0
    assert g.rows() == ((3, 4, 5), (0, 7, 8), (0, 0, 9))
    with pytest.raises(IndexError):
        g.entry(0, 3)


@given(r=st.integers(2, 8), data=st.data())
def test_cell_index_is_the_row_major_position(r, data):
    # cells are the r diagonal entries, then the strict entries row-major
    i = data.draw(st.integers(0, r - 2))
    j = data.draw(st.integers(i + 1, r - 1))
    strict = [(a, b) for a in range(r) for b in range(a + 1, r)]
    assert _cell(r, i, j) == r + strict.index((i, j))


def test_vector_validation():
    with pytest.raises(ValueError):
        ResidueVector(n=3, r=2, coords=(0, 3))
    with pytest.raises(ValueError):
        ResidueVector(n=3, r=2, coords=(0,))
    with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
        ResidueVector(n=0, r=1, coords=(0,))


def test_divisor_chain_invariant_enforced():
    DivisorChain(n=12, r=2, values=(2, 6))
    with pytest.raises(ValueError):
        DivisorChain(n=12, r=2, values=(5, 1))
    with pytest.raises(ValueError):
        DivisorChain(n=12, r=2, values=(2, 8))  # 8 does not divide 12/2
    with pytest.raises(ValueError, match="expected 2 chain values"):
        DivisorChain(n=12, r=2, values=(2, 6, 1))
    for n, r, values in [(0, 1, (5,)), (-12, 1, (1,)), (12, 0, ())]:
        with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
            DivisorChain(n=n, r=r, values=values)


def test_records_are_immutable_hashable_and_pickle_to_equal_records():
    g = UpperTriangularMatrix.identity(3, 2)
    assert repr(g) == "UpperTriangularMatrix(n=3, r=2, cells=(1, 1, 0))"
    records = [
        g,
        ResidueVector(n=4, r=2, coords=(1, 2)),
        DivisorChain(n=12, r=2, values=(2, 6)),
    ]
    for rec in records:
        with pytest.raises(AttributeError):
            rec.n = 5
        with pytest.raises(AttributeError):
            rec.extra = 1
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec) and hash(back) == hash(rec)


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


def assert_cokernel_contract(n, rows):
    """_cokernel's (d, U) for rows gives the brute-force kernel size, image
    membership and order of every vector."""
    d, U = _cokernel(n, [row[:] for row in rows])
    residues = tuple(tuple(x % n for x in row) for row in rows)
    check_cokernel(n, residues, tuple(d), tuple(map(tuple, U)))


@cache  # the check depends on rows only mod n: each distinct answer is checked once
def check_cokernel(n, rows, d, U):
    k = len(rows)
    space = list(product(range(n), repeat=k))

    def image_of(x):
        return tuple(sum(rows[i][j] * x[j] for j in range(k)) % n for i in range(k))

    image = {image_of(x) for x in space}
    assert prod(d) == sum(1 for x in space if not any(image_of(x))), (n, rows, d)
    for v in space:
        w = [sum(U[i][j] * v[j] for j in range(k)) for i in range(k)]
        assert all(wi % di == 0 for wi, di in zip(w, d)) == (v in image), (n, rows, v)
        order = next(t for t in range(1, n + 1) if tuple(t * x % n for x in v) in image)
        assert lcm(*(di // gcd(di, wi) for wi, di in zip(w, d))) == order, (n, rows, v)


@settings(max_examples=200)
@given(k=st.integers(0, 4), data=st.data())
def test_cokernel_matches_brute_force_on_arbitrary_matrices(k, data):
    # k = 0 is the empty block that compute_dk reduces, k = 4 the leading
    # block of an r = 5 sweep; entries past +-n leave remainders, so a
    # pivot can take several rounds. Half the draws are upper-triangular,
    # the shape of every sweep's M'
    n = data.draw(st.integers(1, 5 if k == 4 else 8))
    rows = [[data.draw(st.integers(-3 * n, 3 * n)) for _ in range(k)] for _ in range(k)]
    if data.draw(st.booleans()):
        rows = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    assert_cokernel_contract(n, rows)


def test_cokernel_meets_its_contract_on_every_small_triangular_block():
    # every [[a, b], [0, c]] mod n <= 8, the M' of every r = 3 sweep; entries
    # in [-n, 2n), so negative entries and entries of n or more reach it too
    for n in range(1, 9):
        for a, b, c in product(range(-n, 2 * n), repeat=3):
            assert_cokernel_contract(n, [[a, b], [0, c]])


def test_cokernel_meets_its_contract_on_every_small_2x2_block():
    # every 2 x 2 block mod n <= 5, a nonzero lower-left entry included
    for n in range(1, 6):
        for a, b, e, c in product(range(n), repeat=4):
            assert_cokernel_contract(n, [[a, b], [e, c]])


def test_cokernel_meets_its_contract_on_every_small_triangular_3x3_block():
    # every upper-triangular 3 x 3 block mod n <= 3, the M' of every r = 4
    # sweep, which the hypothesis test above only samples
    for n in range(1, 4):
        for a, b, c, e, f, h in product(range(n), repeat=6):
            assert_cokernel_contract(n, [[a, b, c], [0, e, f], [0, 0, h]])


def test_cokernel_meets_its_contract_on_every_1x1_block():
    # every [[a]] mod n <= 30, the M' of every r = 2 sweep; a = 0 and
    # a = n give Z/n, negative a its residue's factor
    for n in range(1, 31):
        for a in range(-n, 2 * n):
            assert_cokernel_contract(n, [[a]])


def test_cokernel_ends_where_one_entry_divides_the_other():
    # mod 2, Euclid on (1, 1) can give the Bezout pair (0, 1), whose column
    # and row steps undo each other forever; a | b must be a subtraction
    assert_cokernel_contract(2, [[1, 1], [0, 1]])


def sweep(n, r, lo, hi):
    return _fixed_point_sum_shard((n, r, lo, hi))


def element_run_sum(n, run, term, start, stop):
    """_run_sum element by element, with no lines: element e = p n + q of
    the run has order lcm_i d_i / gcd(d_i, base_i + p sp_i + q sq_i)."""
    g_r, rows = term[0], [term[t : t + 4] for t in range(1, len(term), 4)]
    return sum(
        g_r // lcm(*(di // gcd(di, base + e // n * sp + e % n * sq) for di, base, sp, sq in rows))
        for e in range(start, stop)
    )


def clipped_sweep(n, r, lo, hi):
    """The sweep over [lo, hi), each run of one lead split between two
    calls: every run is clipped, and every call starts with nothing
    reduced or summed. A clipped run is summed by element_run_sum, so each
    element gets its own term, independent of the kernel's lines."""
    run = n ** min(r - 1, 2)  # elements per lead: 1 (r = 1), n or n^2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_action, "_run_sum", element_run_sum)
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


@settings(max_examples=300)
@given(n=st.integers(1, 5000), data=st.data())
def test_r1_kernel_agrees_with_the_gcd_oracle_across_windows(n, data):
    # 64-residue windows, so most ranges start, cross and end in different ones
    phi = len(units(n))
    lo = data.draw(st.integers(0, phi))
    hi = data.draw(st.integers(lo, phi))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_action, "_R1_WINDOW", 64)
        for a, b in [(lo, hi), (0, hi), (lo, phi), (0, phi)]:
            assert sweep(n, 1, a, b) == unit_gcd_sum(n, a, b), (a, b)


@pytest.mark.parametrize("n", [2**17, 2 * 3**9, 720720, 30030, 510510])
def test_r1_kernel_agrees_with_the_gcd_oracle_on_even_moduli(n):
    rng = random.Random(n)
    phi = len(units(n))
    ranges = [(0, phi), (0, 1), (phi - 1, phi)]
    ranges += [tuple(sorted(rng.randrange(phi + 1) for _ in range(2))) for _ in range(20)]
    for a, b in ranges:
        assert sweep(n, 1, a, b) == unit_gcd_sum(n, a, b), (a, b)


def test_unit_residue_matches_a_scan_of_the_units():
    for n in range(1, 301):
        us = units(n)
        primes = [p for p, _ in factorize(n)]
        for k in range(len(us) + 1):
            assert _unit_residue(n, primes, k) == (us[k - 1] + 1 if k else 0), (n, k)


def test_r1_sweep_makes_no_int_per_unit():
    # One window's coprime mask and its slices, whatever n: a units tuple
    # and a gcd per unit would take about 42 bytes per residue, and a gcd
    # table over all residues at least 9.
    peaks = {}
    for n in (99991, 3 * 2**20, 9699690):  # a prime, an even n, a primorial
        gc.collect()
        tracemalloc.start()
        try:
            assert fixed_point_sum(n, 1) == euler_phi(n) * tau(n)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 4 * 2**20, peaks
    assert peaks[99991] < 16 * 99991, peaks  # nothing per residue at small n either


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
    # a full sweep reuses each block's reductions and the call's full-run
    # sums, and weights one sub-block per g_r class by the class's units
    assert sweep(n, r, 0, hi) == clipped_sweep(n, r, 0, hi)


# Cokernels with two nontrivial factors, so a full run's orders are an lcm
# of two rows' lines, and several g_r classes per block, so the call's
# table of full-run sums is read across classes and blocks. (12, 3) is cut
# to its first two diagonal blocks and (6, 4) to its first,
# phi(n) * n^(r(r-1)/2) elements each.
@pytest.mark.parametrize(
    "n, r, hi",
    [(8, 3, group_size(8, 3)), (12, 3, 2 * 4 * 12**3), (6, 4, 2 * 6**6)],
)
def test_cached_lines_sum_as_their_elements_do(n, r, hi, monkeypatch):
    factors = []

    def recorded(n, mat):
        d, U = _cokernel(n, mat)
        factors.append(sum(di > 1 for di in d))
        return d, U

    monkeypatch.setattr(group_action, "_cokernel", recorded)
    assert sweep(n, r, 0, hi) == clipped_sweep(n, r, 0, hi)
    assert max(factors) >= 2


def test_sweep_lines_are_bounded_and_freed_per_call():
    # A full run's orders are built from lines and dropped once its sum is
    # in the call's table of full-run sums; that table and one block's
    # reductions peak at about 170 KB at n = 20. Nothing of them is kept
    # once the call returns. A full collection clears the free lists first.
    gc.collect()
    tracemalloc.start()
    try:
        assert fixed_point_sum(20, 3) == group_size(20, 3) * tau_r_closed(20, 3)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10, peak
    assert held < 4 * 2**10, held


def test_largest_r3_sweep_is_bounded_and_freed_per_call():
    # (24, 3) is the largest r = 3 group the default budget admits
    # (|G| r^2 = 6.4 * 10^7; n = 25..30 are refused). Its table of full-run
    # sums holds about 1100 flat tuples, and the sweep peaked at 314 KiB;
    # nothing of it is kept once the call returns.
    gc.collect()
    tracemalloc.start()
    try:
        assert fixed_point_sum(24, 3) == group_size(24, 3) * tau_r_closed(24, 3)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10, peak
    assert held < 4 * 2**10, held


def class_boundaries(n, r, hi):
    """Each a_rr sub-block boundary c in [0, hi], with the window of whole
    diagonal blocks around c - run and c + run, clipped to [0, hi]."""
    run = n ** min(r - 1, 2)
    sub = n ** (r * (r - 1) // 2)  # elements per a_rr: every strict entry over Z_n
    block = len(units(n)) * sub  # elements per diagonal of M'
    for c in range(0, hi + 1, sub):
        lo_w = max(c - run, 0) // block * block
        hi_w = min(-(-min(c + run, hi) // block) * block, hi)
        yield c, run, block, lo_w, hi_w


# (9, 3) has three g_r classes among its six units, so a whole block
# walks three of its six sub-blocks; (4, 4) is cut to its first diagonal
# block, two sub-blocks with fixed entries of c in their leads. At r = 2 a
# sub-block is one run: the classes 16, 2, 4, 8 of (16, 2) first occur at
# units 1, 3, 5 and 9, so a whole block walks those four of its eight
# sub-blocks, and a cut one element past a boundary clips the block, which
# then walks the other four too; (9, 2) walks the first three of its six.
@pytest.mark.parametrize(
    "n, r, hi",
    [(9, 3, group_size(9, 3)), (4, 4, 4**6 * 2), (16, 2, group_size(16, 2)), (9, 2, group_size(9, 2))],
)
def test_sweep_splits_at_every_class_boundary(n, r, hi):
    # A block walks one sub-block per g_r class, weighted by the class's
    # units, only when it lies wholly inside the call; a clipped block walks
    # every sub-block it meets. Cuts at each boundary, one run either side
    # of it and one element past it clip the sub-blocks around it.
    clipped = {}
    for c, run, block, lo_w, hi_w in class_boundaries(n, r, hi):
        for b in range(lo_w, hi_w, block):
            if b not in clipped:
                clipped[b] = clipped_sweep(n, r, b, b + block)
        whole = sweep(n, r, lo_w, hi_w)
        assert whole == sum(clipped[b] for b in range(lo_w, hi_w, block)), c
        for cut in (c - run, c, c + 1, c + run):
            if lo_w <= cut <= hi_w:
                assert sweep(n, r, lo_w, cut) + sweep(n, r, cut, hi_w) == whole, (c, cut)


def g_r_classes(n):
    # C(n), the number of distinct g_r = gcd(n, u - 1): u - 1 takes every
    # p-adic valuation 0..a at an odd p^a || n, and 1..a at p = 2
    return prod(a if p == 2 else a + 1 for p, a in factorize(n))


# Each n has fewer g classes than units, C(n) < phi(n), so whole blocks
# share a class tuple and are weighted by their count.
@pytest.mark.parametrize("n, r", [(7, 3), (8, 3), (9, 3), (16, 2), (103, 2), (5, 4)])
def test_block_weighting_equals_walking_every_block(n, r):
    # A call over one diagonal block holds that block alone, so it walks
    # its own diagonal with weight 1; the one-call sweep walks one block
    # per tuple of g classes and weights it by the blocks sharing it.
    block = euler_phi(n) * n ** (r * (r - 1) // 2)
    size = group_size(n, r)
    assert g_r_classes(n) < euler_phi(n)
    each = sum(sweep(n, r, b, b + block) for b in range(0, size, block))
    assert each == sweep(n, r, 0, size) == size * tau_r_closed(n, r)


@pytest.mark.parametrize("n, r", [(9, 2), (9, 3), (4, 4)])
def test_each_distinct_leading_block_is_reduced_once(n, r, monkeypatch):
    calls = []

    def counted(n, mat):
        calls.append(1)
        return _cokernel(n, mat)

    monkeypatch.setattr(group_action, "_cokernel", counted)
    fixed_point_sum(n, r)
    # one block per tuple of g classes on the diagonal of M': C(n)^k of
    # them, each reducing its n^(k(k-1)/2) strict entries of M'; (9, 2)
    # reduces 3 blocks, not its 6
    k = r - 1
    assert len(calls) == g_r_classes(n) ** k * n ** (k * (k - 1) // 2)


def test_r2_sweep_takes_fewer_than_ten_gcds_per_unit(monkeypatch):
    # g_r is read from one gcd per unit of the a_rr pool into the call's
    # list of classes, and a whole block walks one a_rr per class; reading
    # it per lead took phi(n)^2 = 10 404 gcds
    calls = []

    def counted(*args):
        calls.append(1)
        return gcd(*args)

    monkeypatch.setattr(group_action, "gcd", counted)
    assert fixed_point_sum(103, 2) == group_size(103, 2) * tau_r_closed(103, 2)
    assert len(calls) < 10 * euler_phi(103), len(calls)


def test_an_unsharded_sweep_walks_the_leads_its_classes_predict(monkeypatch):
    # one block per tuple of g classes on the diagonal of M', C(n)^(r-1)
    # of them, each walking its first a_rr sub-block once per g_r class:
    # C(n)^r * n^m leads, m = (r-1)(r-2)/2 + max(r-3, 0) being the lead
    # digits after a_rr
    walked = []

    def counted(iterable, *bounds):
        items = islice(iterable, *bounds)
        if bounds[-1] is None:  # the block heads, walked to the end
            return items
        leads = list(items)  # a lead walk, bounded by its sub-block
        walked.append(len(leads))
        return iter(leads)

    monkeypatch.setattr(group_action, "islice", counted)
    grid = [(n, 2) for n in range(2, 151)] + [(n, 3) for n in range(2, 21)]
    for n, r in grid + [(n, 4) for n in range(2, 6)] + [(2, 5)]:
        assert g_r_classes(n) == len({gcd(n, u - 1) for u in units(n)}), n
        walked.clear()
        size = group_size(n, r)
        assert _fixed_point_sum_shard((n, r, 0, size)) == size * tau_r_closed(n, r), (n, r)
        m = (r - 1) * (r - 2) // 2 + max(r - 3, 0)
        assert sum(walked) == g_r_classes(n) ** r * n**m, (n, r)


def test_shard_cuts_fall_on_block_boundaries():
    # A block cut by a shard bound walks every sub-block it meets, not one
    # per g_r class. An in-process sweep is one uncut kernel call, so the
    # cuts that matter are the pieces of a 2-worker pool and the tracer's
    # replay of the benchmark's sharded sweeps. Past n = 2 none is cut:
    # at 2 shards, phi(n) is even for n >= 3, so |G| / 2 is a whole number
    # of blocks of phi(n) * n^(r(r-1)/2) elements. Beyond them, every
    # 2-shard sweep at r = 2 with n <= 150 and at r = 3 with n <= 24.
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    sharded = [
        (w.r, w.n_max, w.shards)
        for workload in workloads.values()
        for w in workload.invocations
        if w.shards > 1 and w.r > 1
    ]
    assert sharded
    for r, top, shards in sharded + [(2, 150, 2), (3, 24, 2)]:
        for n in range(3, top + 1):
            block = euler_phi(n) * n ** (r * (r - 1) // 2)
            for lo, _ in _shard_bounds(group_size(n, r), shards):
                assert lo % block == 0, (n, r, shards, lo)


def test_r2_identity_holds_past_the_acceptance_domain():
    # criterion 2 checks n <= 40 through the CLI; every class layout of the
    # a_rr pool up to 150 meets the closed form here
    for n in range(1, 151):
        assert fixed_point_sum(n, 2) == group_size(n, 2) * tau_r_closed(n, 2), n


def test_r3_identity_holds_past_the_acceptance_domain():
    # the acceptance grid stops at n = 20 for r = 3; (37, 3), the largest
    # group here, estimates 2.1e10 sweep operations
    for n in range(1, 41):
        assert fixed_point_sum(n, 3, budget=3 * 10**10) == group_size(n, 3) * tau_r_closed(n, 3), n


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


def test_count_chains_validation():
    with pytest.raises(ValueError, match="need n >= 1 and r >= 1"):
        count_chains(0, 2)


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


def test_count_chains_lists_divisors_once(monkeypatch):
    # the links come from n's own divisor list, not a divisors(m) per divisor m
    calls = []
    real = group_action.divisors

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(group_action, "divisors", counting)
    assert count_chains(720720, 3) == tau_r_closed(720720, 3)
    assert calls == [720720]


# --- sharding -----------------------------------------------------------------------


def test_shard_bounds_partition_evenly():
    bounds = _shard_bounds(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]
    assert _shard_bounds(2, 5)[-1] == (2, 2)  # empty tail shards are fine
    with pytest.raises(ValueError):
        _shard_bounds(10, 0)


def test_a_sweep_refuses_fewer_than_one_shard():
    # an in-process sweep never builds shard bounds, so the count is checked
    # up front, for every sweep
    for shards in (0, -3):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            fixed_point_sum(5, 2, shards=shards)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            orbit_count_burnside(5, 2, shards=shards)


def test_fixed_point_sum_is_shard_invariant():
    # in-process, a sweep is one kernel call whatever shards is; the pool's
    # split pieces, summed in this process, must give the same total
    single = fixed_point_sum(6, 3, shards=1)
    for shards in (1, 2, 3, 8):
        assert fixed_point_sum(6, 3, shards=shards) == single
        pieces = _shard_bounds(group_size(6, 3), shards)
        assert sum(_fixed_point_sum_shard((6, 3, lo, hi)) for lo, hi in pieces) == single, shards


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace the worker pool with one that runs shards in this process,
    with no floor on the sweeps that use it and four CPUs to run on;
    yields the max_workers of every pool built."""
    made = []

    class FakePool:
        map = staticmethod(map)

        def __init__(self, max_workers):
            made.append(max_workers)

    monkeypatch.setattr(group_action, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(group_action, "_POOL_MIN_OPS", 0)
    monkeypatch.setattr(group_action.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    group_action._pool.cache_clear()
    yield made
    group_action._pool.cache_clear()


def test_sharded_sweeps_share_one_pool(fake_pools):
    sharded = [fixed_point_sum(n, 2, shards=2) for n in (5, 6)]
    assert sharded == [fixed_point_sum(n, 2) for n in (5, 6)]
    assert len(fake_pools) == 1


def test_pool_workers_are_capped_by_cpu_count(fake_pools, monkeypatch):
    # the CPUs this process may run on, not all the host has
    monkeypatch.setattr(group_action.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(group_action.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert fixed_point_sum(6, 3, shards=64) == fixed_point_sum(6, 3, shards=1)
    assert fake_pools == [2]


def test_a_sweep_takes_the_pool_only_at_the_floor_with_two_workers(fake_pools, monkeypatch):
    # the pool needs two workers and |G| * r^2 at the floor; short of
    # that, the sweep is one kernel call in this process, whatever shards is
    expected = {n: fixed_point_sum(n, 2) for n in (4, 5)}  # one piece
    monkeypatch.setattr(group_action, "_POOL_MIN_OPS", group_size(5, 2) * 4)
    pieces = []

    def counted(args):
        pieces.append(args)
        return _fixed_point_sum_shard(args)

    monkeypatch.setattr(group_action, "_fixed_point_sum_shard", counted)
    assert fixed_point_sum(5, 2) == expected[5]  # one shard at the floor
    assert fixed_point_sum(4, 2, shards=2) == expected[4]  # under the floor
    monkeypatch.setattr(group_action.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fixed_point_sum(5, 2, shards=2) == expected[5]  # one worker
    assert fake_pools == []
    assert pieces == [(5, 2, 0, 80), (4, 2, 0, 16), (5, 2, 0, 80)]  # 1 + 1 + 1 whole-range calls
    monkeypatch.setattr(group_action.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert fixed_point_sum(5, 2, shards=2) == expected[5]  # at the floor
    assert fixed_point_sum(7, 2, shards=2) == fixed_point_sum(7, 2)  # over it, the same pool
    assert fake_pools == [2]


def test_r1_shards_agree_with_the_gcd_oracle():
    # a pooled r = 1 sweep of n <= 2^20 is one window, so one piece; the
    # split pieces are summed here, as criterion 9 does
    for n in range(1, 301):
        phi = euler_phi(n)
        expected = unit_gcd_sum(n, 0, phi)
        assert fixed_point_sum(n, 1) == expected, n
        for s in range(1, 6):
            pieces = _shard_bounds(phi, s)
            assert sum(_fixed_point_sum_shard((n, 1, lo, hi)) for lo, hi in pieces) == expected, (n, s)


def test_a_pooled_sweep_maps_one_piece_per_worker(fake_pools, monkeypatch):
    # each piece rebuilds the kernel's per-call tables, so a sweep maps one
    # piece per worker, whatever shards is
    pieces = []

    def counted(args):
        pieces.append(args)
        return _fixed_point_sum_shard(args)

    monkeypatch.setattr(group_action, "_fixed_point_sum_shard", counted)
    for n, shards in ((5, 10**5), (103, 10**6)):
        pieces.clear()
        assert fixed_point_sum(n, 2, shards=shards) == _fixed_point_sum_shard((n, 2, 0, group_size(n, 2)))
        assert len(pieces) == 4, n
    assert fake_pools == [4]


def test_pool_map_keeps_input_order_over_several_rounds():
    with group_action.ProcessPoolExecutor(max_workers=2) as pool:
        assert pool.map(abs, range(-7, 0)) == [7, 6, 5, 4, 3, 2, 1]
        assert pool.map(abs, []) == []


def test_pool_worker_error_reaches_the_caller_and_leaves_no_stale_reply():
    with group_action.ProcessPoolExecutor(max_workers=2) as pool:
        with pytest.raises(ValueError) as err:
            pool.map(int, ["1", "x", "3"])
        worker = str(err.value.__cause__)  # the worker's traceback, as text
        assert "Traceback (most recent call last)" in worker
        assert "ValueError: invalid literal for int() with base 10: 'x'" in worker
        assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]


def _in_new_session(argv):
    # a Python process leading a process group of its own, with src/ importable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-W", "error", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )


def _assert_group_is_gone(pgid):
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


@pytest.mark.skipif(_cpus() < 2, reason="a sharded sweep runs in this process on one CPU")
def test_a_pooled_run_leaves_no_process_behind_and_writes_no_stderr():
    # (103, 2) is the first r = 2 sweep at the pool floor; -W error turns a
    # pool left running at exit (a ResourceWarning) into stderr text
    proc = _in_new_session(["-m", "menon.cli", "verify", "--n", "103..103", "--r", "2", "--shards", "2"])
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert err == b""
    assert json.loads(out)["n"] == "103"
    _assert_group_is_gone(proc.pid)


@pytest.mark.skipif(_cpus() < 2, reason="a sharded sweep runs in this process on one CPU")
def test_ctrl_c_with_an_idle_pool_ends_the_run_with_one_traceback():
    # Ctrl-C reaches the whole process group; the idle workers ignore it,
    # so only the parent reports it, and they end with it
    code = (
        "import time\n"
        "from menon.group_action import fixed_point_sum\n"
        "fixed_point_sum(103, 2, shards=2)\n"
        "print('pooled', flush=True)\n"
        "time.sleep(60)\n"
    )
    proc = _in_new_session(["-c", code])
    assert proc.stdout.readline() == b"pooled\n"
    os.killpg(proc.pid, signal.SIGINT)
    _, err = proc.communicate(timeout=10)
    assert proc.returncode != 0
    assert err.count(b"Traceback") == 1, err
    assert b"KeyboardInterrupt" in err
    assert b"Process ForkPoolWorker-" not in err
    _assert_group_is_gone(proc.pid)


def test_fixed_point_sum_refuses_over_budget():
    with pytest.raises(BudgetExceededError) as err:
        fixed_point_sum(100, 4, budget=1000)
    assert err.value.estimated_ops > 1000


# The text of each kind of refusal. A check fills in the operation's name
# only when it refuses, and must then print exactly this.
@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: fixed_point_sum(100, 4, budget=1000),
         "group sweep(n=100, r=4) refused: group size 2560000000000000000, "
         "estimated 40960000000000000000 elementary operations exceeds budget 1000"),
        (lambda: fixed_point_sum(10, 100),
         "group sweep(n=10, r=100) refused: at least 2^4950 elementary operations exceeds budget 100000000"),
        (lambda: enumerate_group(6, 3, budget=1000),
         "enumerate_group(6, 3) refused: group size 1728, estimated 15552 elementary operations "
         "exceeds budget 1000"),
        (lambda: enumerate_group(2, 30),
         "enumerate_group(2, 30) refused: at least 2^435 elementary operations exceeds budget 100000000"),
        (lambda: fixed_points_direct(UpperTriangularMatrix.identity(10, 3), budget=1000),
         "fixed_points_direct(n=10, r=3) refused: group size 64000, estimated 9000 elementary "
         "operations exceeds budget 1000"),
        (lambda: orbits_brute_force(10, 3, budget=1000),
         "orbits_brute_force(n=10, r=3) refused: group size 64000, estimated 9000 elementary "
         "operations exceeds budget 1000"),
        (lambda: orbits_brute_force(3, 3, budget=1000),  # by its generator count
         "orbits_brute_force(n=3, r=3) refused: group size 216, estimated 1458 elementary "
         "operations exceeds budget 1000"),
        (lambda: orbits_brute_force(2, 30),
         "orbits_brute_force(n=2, r=30) refused: at least 2^30 elementary operations exceeds budget 100000000"),
    ],
    ids=["sweep", "sweep-floor", "enumerate", "enumerate-floor", "direct", "unionfind",
         "unionfind-generators", "unionfind-floor"],
)
def test_refusal_messages_keep_their_text(refused, message):
    with pytest.raises(BudgetExceededError) as err:
        refused()
    assert str(err.value) == message


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


def test_sweep_of_a_trivial_group_builds_only_the_lead_it_reads():
    # the items after the first are never built: m + 1 eager products of
    # the m = r(r+1)/2 pools of G(1, r) would take about 1 GB here
    gc.collect()
    tracemalloc.start()
    try:
        assert next(_iter_cells(1, 100, 0, 1)) == (0,) * 5050
        assert element_at(1, 100, 0).cells == (0,) * 5050
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_sweep_of_a_trivial_group_builds_no_lead():
    # the budget admits r up to 10^4 at n = 1, where a lead's cells, block
    # and U take O(r^2) memory: 97.5 MiB at r = 1000, about 10 GB at 10^4.
    # r = 1000 goes first, so that such a sweep fails before it nears that.
    for r in (1000, 10**4):
        gc.collect()
        tracemalloc.start()
        try:
            assert fixed_point_sum(1, r) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (r, peak)
    # the one element fixes the one vector
    for r in range(1, 41):
        assert _fixed_point_sum_shard((1, r, 0, 1)) == fixed_points_direct(element_at(1, r, 0)) == 1


def test_orbit_pass_refuses_before_building_its_generators(monkeypatch):
    # 44 850 transvections of 45 150 cells each; the count alone refuses
    def no_generators(n, r):
        raise AssertionError(f"_generators({n}, {r}) called")

    monkeypatch.setattr(group_action, "_generators", no_generators)
    with pytest.raises(BudgetExceededError) as err:
        orbits_brute_force(1, 300)
    assert err.value.estimated_ops == (300 * 299 // 2) * 300**2


def test_sweep_reads_units_through_the_module_name(monkeypatch):
    # perfbench/tracer.py counts units(n) calls by rebinding
    # group_action.units, so the sweep must look the name up per call
    calls = []

    def counted(n):
        calls.append(n)
        return units(n)

    monkeypatch.setattr(group_action, "units", counted)
    assert fixed_point_sum(5, 3) == group_size(5, 3) * tau_r_closed(5, 3)
    assert calls == [5]


def test_units_ascending_and_degenerate():
    assert units(1) == (0,)
    assert units(12) == (1, 5, 7, 11)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        units(0)
    # the sieve against the gcd scan, the slow oracle
    for n in range(1, 2001):
        assert units(n) == tuple(a for a in range(n) if gcd(n, a) == 1), n


# --- module graph -------------------------------------------------------------------


def assert_does_not_import_identity(path):
    # lazily or not, by module or by name
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert "identity" not in name.split("."), f"{path.name} line {node.lineno} imports {name}"


def test_group_action_does_not_import_identity():
    # identity builds on group_action, never the reverse
    assert_does_not_import_identity(Path(group_action.__file__))


def test_cli_does_not_import_identity():
    # the CLI sweeps through group_action and takes tau_r from its own table
    assert_does_not_import_identity(Path(group_action.__file__).with_name("cli.py"))


def test_no_module_has_a_bare_assert():
    # python -O strips assert statements, so every invariant raises instead,
    # in the package and in the scripts under scripts/
    scripts = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
    assert scripts
    for path in sorted(Path(group_action.__file__).parent.glob("*.py")) + scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name} line {node.lineno}"


def test_burnside_divisibility_check_survives_python_O():
    # the leading bare assert shows that -O really strips asserts
    code = (
        "assert False\n"
        "from menon import group_action\n"
        "group_action.fixed_point_sum = lambda n, r, **kw: group_action.group_size(n, r) + 1\n"
        "group_action.orbit_count_burnside(3, 2)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"AssertionError: fixed-point sum 13 is not divisible by |G| = 12" in proc.stderr


def test_public_names_are_pinned():
    # an export change has to edit this list, and is declared as one
    names = sorted(
        name
        for name, value in vars(menon).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == [
        "BudgetExceededError",
        "DEFAULT_BUDGET",
        "DivisorChain",
        "ResidueVector",
        "UpperTriangularMatrix",
        "apply",
        "compute_dk",
        "count_chains",
        "dirichlet_convolve",
        "divisor_chain",
        "divisors",
        "element_at",
        "enumerate_group",
        "euler_phi",
        "factorize",
        "fixed_point_count_formula",
        "fixed_points_direct",
        "group_size",
        "matmul",
        "orbit_count_burnside",
        "orbits_brute_force",
        "tau",
        "tau2_explicit",
        "tau_r_closed",
        "tau_r_recursive",
        "units",
    ]


def test_only_the_factor_and_pool_caches_keep_state():
    # Every other function is pure per call; a new cache needs a test that
    # shows it is hit.
    cached = set()
    for path in sorted(Path(group_action.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("cache", "lru_cache"):
                        cached.add(f"{path.stem}.{node.name}")
    assert cached == {"arith._factor", "group_action._pool"}
