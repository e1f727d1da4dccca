"""The per-column factors d_k and the elimination behind them, and the
identity itself: the exhaustive sweep fixed_point_sum against the closed
form group_size * tau_r."""

import gc
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon.arith import euler_phi, tau, tau_r_recursive
from menon.group_action import (
    UpperTriangularMatrix,
    element_at,
    enumerate_group,
    fixed_point_sum,
    fixed_points_direct,
    group_size,
)
from menon.identity import _solution_count, compute_dk


def mat(n, rows):
    return UpperTriangularMatrix.from_rows(n, rows)


def brute_solution_count(n, rows):
    k = len(rows)
    return sum(
        1
        for x in product(range(n), repeat=k)
        if all(sum(rows[i][j] * x[j] for j in range(k)) % n == 0 for i in range(k))
    )


# --- the elimination engine behind the factors --------------------------------


@settings(max_examples=250)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 3),
    data=st.data(),
)
def test_solution_count_matches_brute_force_on_arbitrary_matrices(n, k, data):
    rows = [
        [data.draw(st.integers(-n, 2 * n)) for _ in range(k)] for _ in range(k)
    ]
    expected = brute_solution_count(n, rows)
    assert _solution_count(n, [row[:] for row in rows]) == expected


def test_solution_count_zero_matrix_is_full_space():
    assert _solution_count(5, [[0, 0], [0, 0]]) == 25


# --- compute_dk -----------------------------------------------------------------


def test_compute_dk_unit_diagonal_gives_n():
    for n in (1, 2, 7, 12):
        g = UpperTriangularMatrix.identity(n, 3)
        assert compute_dk(g, 1) == n


def test_compute_dk_hand_examples():
    g = mat(4, [[3, 2], [0, 3]])
    assert (compute_dk(g, 1), compute_dk(g, 2)) == (2, 2)
    assert fixed_points_direct(g) == 4

    g = mat(2, [[1, 1], [0, 1]])
    assert (compute_dk(g, 1), compute_dk(g, 2)) == (2, 1)
    assert fixed_points_direct(g) == 2


def test_compute_dk_rejects_out_of_range_column():
    g = UpperTriangularMatrix.identity(3, 2)
    with pytest.raises(ValueError):
        compute_dk(g, 0)
    with pytest.raises(ValueError):
        compute_dk(g, 3)


@settings(max_examples=150)
@given(n=st.integers(1, 16), r=st.integers(1, 3), data=st.data())
def test_compute_dk_divides_modulus(n, r, data):
    g = element_at(n, r, data.draw(st.integers(0, group_size(n, r) - 1)))
    for k in range(1, r + 1):
        assert n % compute_dk(g, k) == 0


@pytest.mark.parametrize("n, r", [(6, 3), (8, 2), (4, 3)])
def test_dk_product_is_the_fixed_point_count(n, r):
    for g in enumerate_group(n, r):
        prod_dk = 1
        for k in range(1, r + 1):
            prod_dk *= compute_dk(g, k)
        assert prod_dk == fixed_points_direct(g)


def closed_form_d1_d2(g):
    # d_1 = gcd(n, a_11 - 1) and d_2 = gcd(n, n a_12 / d_1, a_22 - 1), with
    # the full product n a_12 formed before the exact division
    n = g.n
    d1 = gcd(n, g.entry(0, 0) - 1)
    return d1, gcd(n, n * g.entry(0, 1) // d1, g.entry(1, 1) - 1)


@pytest.mark.parametrize("n, r", [(n, 2) for n in range(1, 13)] + [(n, 3) for n in range(1, 6)])
def test_first_two_factors_equal_their_gcd_forms(n, r):
    for g in enumerate_group(n, r):
        assert (compute_dk(g, 1), compute_dk(g, 2)) == closed_form_d1_d2(g), g


# --- the classical case ------------------------------------------------------------


def classical_sum(n):
    # gcd(n, a - 1) over every a < n coprime to n (for n = 1, a = 0)
    return sum(gcd(n, a - 1) for a in range(n) if gcd(n, a) == 1)


@pytest.mark.parametrize("n, lhs", [(1, 1), (3, 4), (12, 24)])
def test_menon_classic_values(n, lhs):
    assert fixed_point_sum(n, 1) == lhs
    assert group_size(n, 1) * tau_r_recursive(n, 1) == euler_phi(n) * tau(n) == lhs
    assert group_size(n, 1) == euler_phi(n)


def test_menon_classic_holds_up_to_300():
    for n in range(1, 301):
        assert fixed_point_sum(n, 1) == group_size(n, 1) * tau_r_recursive(n, 1), n


# --- the general identity -------------------------------------------------------------


@pytest.mark.parametrize("n, r, expected", [(2, 2, 6), (4, 2, 96)])
def test_fixed_point_sum_values(n, r, expected):
    assert fixed_point_sum(n, r) == expected


def test_fixed_point_sum_reduces_to_classical_sum():
    for n in range(1, 301):
        assert fixed_point_sum(n, 1) == classical_sum(n)


@pytest.mark.parametrize(
    "n, r, expected",
    [(2, 2, 6), (12, 2, 3456), (7, 1, 12), (2, 3, 32)],
)
def test_closed_form_values(n, r, expected):
    assert group_size(n, r) * tau_r_recursive(n, r) == expected


def test_closed_form_r1_is_phi_times_tau():
    for n in range(1, 100):
        assert group_size(n, 1) * tau_r_recursive(n, 1) == euler_phi(n) * tau(n)


@pytest.mark.parametrize(
    "n, r, both_sides",
    [(5, 1, 8), (2, 2, 6), (2, 3, 32)],
)
def test_identity_hand_values(n, r, both_sides):
    assert fixed_point_sum(n, r) == group_size(n, r) * tau_r_recursive(n, r) == both_sides


def test_identity_holds_over_small_grid():
    for n in range(1, 21):
        assert fixed_point_sum(n, 2) == group_size(n, 2) * tau_r_recursive(n, 2), n
    for n in range(1, 9):
        assert fixed_point_sum(n, 3) == group_size(n, 3) * tau_r_recursive(n, 3), n


def test_sweep_memory_stays_flat_across_moduli():
    # units(n) of every swept n once stayed cached: ~N^2 growth over a range
    tracemalloc.start()
    try:
        for n in range(1, 3001):
            assert fixed_point_sum(n, 1) == group_size(n, 1) * tau_r_recursive(n, 1), n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_sweep_tables_are_bounded_and_freed_per_call():
    # The kernel keeps its reductions and class sums for one diagonal
    # block, and its full-run sums for one call. Without them this sweep
    # peaked at 7 KB, with them at about 85 KB; memory kept past a call
    # would show in the second peak and in what is still held once the
    # call returns. Objects parked on the interpreter's free lists stay
    # traced, so a full collection clears those lists before each
    # measurement and before reading what is held.
    peaks, held = [], []
    for _ in range(2):
        gc.collect()
        tracemalloc.start()
        try:
            fixed_point_sum(12, 3)
            _, peak = tracemalloc.get_traced_memory()
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        held.append(current)
    assert peaks[0] < 128 * 2**10, peaks
    assert peaks[1] <= peaks[0], peaks
    assert max(held) < 4 * 2**10, held
