"""Smoke tests for the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_orbit_atlas_prints_each_orbit_and_the_four_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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
