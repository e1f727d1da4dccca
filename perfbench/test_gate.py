"""Self-test of the bench's correctness gate.

A tampered record, a wrong digest and a nonzero exit must each raise
failed_share above 0 and fail the run. Run from the repository root:

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from gate import Oracle, Verdict, check_invocation, digest  # noqa: E402
from menon.arith import tau_r_closed  # noqa: E402
from menon.group_action import group_size  # noqa: E402
from workloads import Invocation, Workload  # noqa: E402

VERIFY = Invocation("verify", 8, 2)
TAU = Invocation("tau", 30, 3)


def tiny(digest_hex: str, invocations=(VERIFY, TAU)) -> run.Bench:
    workload = Workload("tiny", invocations, digest_hex)
    return run.Bench(workload, seed=0, oracle=Oracle(group_size, tau_r_closed))


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        bench = tiny("")
        cls.runs = bench.run_pass([VERIFY, TAU])
        cls.good_digest = digest([cls.runs[VERIFY].stdout, cls.runs[TAU].stdout])

    def final_line(self, verdict: Verdict) -> tuple[int, dict]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.report({"wall_s": (1.0, "s")}, verdict)
        return code, json.loads(buf.getvalue().splitlines()[-1])

    def assert_run_fails(self, verdict: Verdict) -> None:
        self.assertGreater(verdict.failed_share, 0)
        code, result = self.final_line(verdict)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_clean_pass_is_correct(self) -> None:
        bench = tiny(self.good_digest)
        bench.run_pass([TAU, VERIFY])
        self.assertEqual(bench.verdict.failed_share, 0)
        self.assertEqual(bench.verdict.attempted, VERIFY.n_max + TAU.n_max)
        code, result = self.final_line(bench.verdict)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])

    def test_tampered_record(self) -> None:
        lines = self.runs[VERIFY].stdout.decode().splitlines(keepends=True)
        rec = json.loads(lines[4])
        rec["lhs"] = str(int(rec["lhs"]) + 1)
        lines[4] = json.dumps(rec) + "\n"
        oracle = Oracle(group_size, tau_r_closed)
        verdict = Verdict()
        verdict.add(*check_invocation(VERIFY, "".join(lines).encode(), b"", 0, oracle))
        self.assertEqual(dict(verdict.failures), {"mismatched": 1})
        self.assert_run_fails(verdict)

    def test_wrong_digest(self) -> None:
        bench = tiny("0" * 64)
        bench.run_pass([VERIFY, TAU])
        self.assertEqual(dict(bench.verdict.failures), {"digest": 1})
        self.assert_run_fails(bench.verdict)

    def test_nonzero_exit(self) -> None:
        bad = Invocation("verify", 8, 0)  # r = 0 is a usage error, exit 64
        bench = tiny(digest([b""]), (bad,))
        cli = bench.run_pass([bad])[bad]
        self.assertEqual(cli.exit_code, 64)
        self.assertEqual(bench.verdict.failures["exit"], 1)
        self.assert_run_fails(bench.verdict)


if __name__ == "__main__":
    unittest.main()
