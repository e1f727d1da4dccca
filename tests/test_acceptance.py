"""Acceptance suite: ten exit criteria, one test and one PASS/FAIL line each.

Every check is exact (tolerance zero); run with -s to see the lines.
All sweeps run against the configured work budget; the orbit-partition
grids are capped per dimension so the Burnside sweep over every group
element finishes in CI time (the orbit pass grows each orbit
breadth-first under a generating set, a few generator images per vector).
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from math import gcd

from menon.arith import (
    dirichlet_convolve,
    const_one,
    factorize,
    tau2_explicit,
    tau_r_closed,
    tau_r_recursive,
)
from menon.group_action import (
    DEFAULT_BUDGET,
    ResidueVector,
    _fixed_point_sum_shard,
    _shard_bounds,
    count_chains,
    divisor_chain,
    enumerate_group,
    fixed_point_sum,
    fixed_points_direct,
    group_size,
    orbit_count_burnside,
    orbits_brute_force,
)
from menon.identity import fixed_point_count_formula


@contextmanager
def criterion(num, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title} ({time.perf_counter() - t0:.1f}s)")


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "menon.cli", *argv],
        capture_output=True,
        timeout=600,
    )


# Orbit-grid domain: n^r <= 10^4 and group_size <= 10^6 throughout, with a
# per-dimension modulus cap keeping the |G|-element Burnside sweep fast.
GRID_CAPS = {1: 300, 2: 40, 3: 12, 4: 6, 5: 4, 6: 3}


def orbit_grid():
    pairs = []
    for r, n_cap in GRID_CAPS.items():
        for n in range(1, n_cap + 1):
            if n**r <= 10**4 and group_size(n, r) <= 10**6:
                pairs.append((n, r))
    return pairs


@lru_cache(maxsize=None)
def grid_blocks(n, r):
    return orbits_brute_force(n, r)


def test_criterion_1_menon_base_case():
    with criterion(1, "Menon base case exact for n = 1..4000 at r = 1"):
        proc = run_cli("verify", "--n", "1..4000", "--r", "1")
        assert proc.returncode == 0, proc.stderr.decode()
        records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        assert len(records) == 4000
        assert all(rec["matched"] for rec in records)
        assert all(rec["lhs"] == rec["rhs"] for rec in records)


def test_criterion_2_r2_identity():
    with criterion(2, "r = 2 identity exact for n = 1..40"):
        proc = run_cli("verify", "--n", "1..40", "--r", "2")
        assert proc.returncode == 0, proc.stderr.decode()
        records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        assert len(records) == 40
        assert all(rec["matched"] for rec in records)


def test_criterion_3_r3_identity():
    # Every n <= 20 whose r = 3 sweep the default budget admits; 17 and 19
    # have groups of 2.0e7 and 4.0e7 elements and are refused.
    domain = [n for n in range(1, 21) if group_size(n, 3) * 3 * 3 <= DEFAULT_BUDGET]
    with criterion(3, f"r = 3 identity exact for n in {domain} (8 shards)"):
        assert domain == [*range(1, 17), 18, 20]
        for n in domain:
            lhs = fixed_point_sum(n, 3, shards=8)
            rhs = group_size(n, 3) * tau_r_recursive(n, 3)
            assert lhs == rhs, f"n={n}: lhs={lhs} rhs={rhs}"


def test_criterion_4_burnside_three_way_agreement():
    pairs = orbit_grid()
    with criterion(4, f"Burnside = orbit pass = chains = tau_r on {len(pairs)} (n, r) pairs"):
        assert (2, 2) in pairs
        assert grid_blocks(2, 2) == [((0, 0),), ((0, 1), (1, 1)), ((1, 0),)]
        for n, r in pairs:
            blocks = grid_blocks(n, r)
            counts = {
                orbit_count_burnside(n, r),
                len(blocks),
                count_chains(n, r),
                tau_r_recursive(n, r),
            }
            assert len(counts) == 1, f"(n={n}, r={r}): {counts}"


def test_criterion_5_fixed_point_formula_oracle():
    pairs = [(n, 2) for n in range(1, 13)] + [(n, 3) for n in range(1, 7)]
    with criterion(5, "factor product equals |X^g| for every g: r=2 n<=12, r=3 n<=6"):
        mismatches = 0
        for n, r in pairs:
            for g in enumerate_group(n, r):
                if fixed_point_count_formula(g) != fixed_points_direct(g):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_6_tau2_shape_formula():
    with criterion(6, "tau2 shape formula exact for n <= 10^4, and 18 at n = 12"):
        assert len(factorize(12)) == 2
        assert tau2_explicit(12) == (3 * 4) * (2 * 3) // 2**2 == 18
        for n in range(1, 10**4 + 1):
            assert tau2_explicit(n) == tau_r_recursive(n, 2)


def test_criterion_7_tau_r_algebra():
    with criterion(7, "tau_r closed form, multiplicativity, convolution steps"):
        for n in range(1, 10**4 + 1):
            for r in range(1, 7):
                assert tau_r_closed(n, r) == tau_r_recursive(n, r)
        for m in range(2, 101):
            for n in range(m, 10**4 // m + 1):
                if gcd(m, n) == 1:
                    for r in range(1, 6):
                        assert tau_r_recursive(m * n, r) == tau_r_recursive(
                            m, r
                        ) * tau_r_recursive(n, r)
        for n in range(1, 10**3 + 1):
            for r in range(2, 6):
                level_below = lambda m, _r=r: tau_r_recursive(m, _r - 1)
                assert dirichlet_convolve(level_below, const_one, n) == tau_r_recursive(n, r)


def test_criterion_8_chain_fibers_are_orbits():
    pairs = orbit_grid()
    with criterion(8, f"divisor-chain fibers equal brute-force orbits on {len(pairs)} pairs"):
        for n, r in pairs:
            fibers = {}
            for coords in product(range(n), repeat=r):
                x = ResidueVector(n=n, r=r, coords=coords)
                fibers.setdefault(divisor_chain(x).values, []).append(coords)
            fiber_blocks = sorted(tuple(sorted(b)) for b in fibers.values())
            assert fiber_blocks == grid_blocks(n, r), f"(n={n}, r={r})"


def test_criterion_9_determinism_and_resharding():
    with criterion(9, "shard-count invariance and byte-identical verify output"):
        # an in-process sweep is one kernel call; the pieces a pool would
        # run are summed here, so split pieces stay checked too
        totals = {shards: fixed_point_sum(6, 3, shards=shards) for shards in (1, 2, 3, 8)}
        for shards in (1, 2, 3, 8):
            bounds = _shard_bounds(group_size(6, 3), shards)
            totals["pieces", shards] = sum(_fixed_point_sum_shard((6, 3, lo, hi)) for lo, hi in bounds)
        assert len(set(totals.values())) == 1, totals
        for fmt in ("json", "csv"):
            args = ("verify", "--n", "1..25", "--r", "2", "--format", fmt)
            first, second = run_cli(*args), run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout  # bytes
            assert first.stderr == second.stderr == b""


def test_criterion_10_budget_guard():
    with criterion(10, "over-budget request refuses with exit 2 and the group size"):
        proc = run_cli("verify", "--n", "100..100", "--r", "4", "--budget", "1000")
        assert proc.returncode == 2
        assert proc.stdout == b""  # no partial results
        diag = json.loads(proc.stderr.decode().splitlines()[0])
        assert diag["refused"] is True
        assert diag["group_size"] == str(group_size(100, 4))
