"""Smoke tests for the experiment scripts under scripts/ and the benchmark's
layer tracer, perfbench/tracer.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from menon.group_action import _cpus, group_size

ROOT = Path(__file__).resolve().parent.parent


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_orbit_atlas_prints_each_orbit_and_the_four_counts():
    env = src_env()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "orbit_atlas.py"), "--n", "4", "--r", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("chain ") for line in lines) == 6
    assert lines[-1] == "orbits=6  burnside=6  chains=6  tau_2(4)=6"


# The tracer rebinds or calls package names (the sweep, its shard kernel,
# _iter_cells, _shard_bounds, the pool factory, _solution_count); a renamed
# one would break it or leave a layer silently unmeasured.
@pytest.mark.parametrize(
    "argv, moduli, pools",
    [
        # (103, 2) is the first r = 2 sweep whose |G| * r^2 reaches the pool floor
        pytest.param(["verify", "--n", "103..103", "--r", "2", "--shards", "2"], range(103, 104), 1,
                     id="verify-sharded"),
        pytest.param(["burnside", "--n", "1..3", "--r", "2"], range(1, 4), 0, id="burnside"),
        # sharded, but under the floor, so its pieces run in this process
        pytest.param(["verify", "--n", "1..6", "--r", "2", "--shards", "2"], range(1, 7), 0,
                     id="verify-sharded-inline",
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "tracer.py replays every multi-piece sweep as if a pool ran it, so it"
                         " counts this kernel twice (CHANGES.md FOUND, ROADMAP item 4)"))),
    ],
)
def test_tracer_runs_the_cli_unchanged_and_measures_its_layers(tmp_path, argv, moduli, pools):
    if pools and _cpus() < 2:
        pytest.skip("a sharded sweep runs in this process on one CPU")
    env = src_env()
    plain = subprocess.run(
        [sys.executable, "-m", "menon.cli", *argv], capture_output=True, env=env, timeout=120
    )
    dump_path = tmp_path / "trace.json"
    tracer = ROOT / "perfbench" / "tracer.py"
    traced = subprocess.run(
        [sys.executable, str(tracer), str(dump_path), "smoke", "--", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    dump = json.loads(dump_path.read_text())
    elements = sum(group_size(n, 2) for n in moduli)
    assert dump["exit"] == 0
    assert dump["calls"]["group_action.sweep"] == len(moduli)
    assert dump["counts"]["kernel.elements"] == elements
    assert dump["counts"]["enumerate.elements"] == elements
    # one pool for the whole sharded run, none for an unsharded one
    assert dump["counts"].get("pool.pools", 0) == pools
