#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `menon` CLI.

    python3 perfbench/run.py --workload sweep-r3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from `src/`.
Each invocation of the CLI is its own subprocess, started the way the
`menon` console script starts it. The seed only orders the invocations of
a pass and the set-up probes, so every seed does the same work.

--trace 0 measures, with tracing off:
  setup_s         for each invocation, the median over its probes (one before
                  each pass, at least SETUP_ROUNDS) of the time from spawn to
                  its first record, with the range cut to n = 1 and stdout
                  unbuffered; summed over the workload's invocations. One
                  unmeasured round of probes runs first;
  wall_s          spawn-to-exit time of the workload's invocations, summed
                  per pass; the mean over passes;
  elements_per_s  sum of |G(n, r)| over the verify and burnside records of a
                  pass, divided by wall_s;
  peak_rss_mb     peak RSS of the largest process of each invocation's tree
                  (wait4 ru_maxrss; pool workers included), max over passes.
Passes repeat while the next one is expected to end within --seconds of the
start, warm-up included.

The times are given at a fixed reference speed of the CPU. The host is
shared, and the speed a vCPU gets from it swings by up to 1.7x within seconds.
So each unsharded invocation is pinned to one CPU, and while it runs a
thread of the bench, pinned to the same CPU, times a small fixed chunk of
pure-Python work every SAMPLE_PERIOD_S. The invocation's times are scaled by
CHUNK_REF_S / (mean CPU time of its chunks). A sharded invocation is left
unpinned, and so is its sampling thread. The raw times and the mean scale are
printed on lines of their own.

--trace 1 runs one pass untraced and the same pass through tracer.py, and
reports the per-layer metrics of the traced pass plus the tracing overhead
(traced minus untraced wall time, at reference speed). The spans are written to
perfbench_out/spans-<workload>-<seed>.jsonl.

Every record is checked by gate.py. The last line of stdout is one JSON
object: correct, attempted (records checked), failed (failures found) and
metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import Oracle, Verdict, check_invocation
from tracer import layer_metrics
from workloads import WORKLOADS, Invocation, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
ENTRY = "from menon.cli import entry; entry()"  # what the console script runs
SETUP_ROUNDS = 5  # at least this many set-up probes per invocation
SAMPLE_PERIOD_S = 0.05  # the speed sampler times one chunk this often
CHUNK_REF_S = 0.002  # CPU time of one speed chunk at the reference speed
RUN_LIMIT_S = 170.0  # no invocation outlives this, counted from the bench's start

clock = time.perf_counter


@dataclass
class CliRun:
    stdout: bytes
    stderr: bytes
    exit_code: int
    wall_s: float
    first_record_s: float
    peak_rss_mb: float
    scale: float  # CHUNK_REF_S / mean chunk time while it ran

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_first_record_s(self) -> float:
        return self.first_record_s * self.scale


def speed_chunk() -> float:
    """CPU seconds this thread takes for a fixed piece of pure-Python work:
    integer arithmetic, tuple keys and dict updates, as the CLI does. It
    calls nothing in `menon`, so a change to the package cannot change it."""
    t0 = time.thread_time()
    seen: dict[tuple[int, int], int] = {}
    for i in range(6_000):
        key = (i * 7919) % 4093, i % 7
        seen[key] = seen.get(key, 0) + i * i % 97
    return time.thread_time() - t0


class SpeedSampler:
    """A thread that times `speed_chunk` now and every SAMPLE_PERIOD_S
    until stopped, on `cpu` if given."""

    def __init__(self, cpu: int | None) -> None:
        self.cpu = cpu
        self.chunks: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        while True:
            self.chunks.append(speed_chunk())
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __enter__(self) -> SpeedSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return CHUNK_REF_S / statistics.mean(self.chunks)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], env: dict, deadline: float, cpu: int | None) -> CliRun:
    """Run one CLI process to exit, on `cpu` if given, while sampling the
    speed of that CPU; kill its process group at `deadline`."""
    with SpeedSampler(cpu) as sampler:
        run = _spawn(cmd, env, deadline, cpu)
    run.scale = sampler.scale
    return run


def _spawn(cmd: list[str], env: dict, deadline: float, cpu: int | None) -> CliRun:
    t0 = clock()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    if cpu is not None:
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:  # already exited
            pass
    timer = threading.Timer(max(deadline - t0, 0.0), _kill_group, (proc,))
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        head = proc.stdout.readline()
        first = clock() - t0
        out = head + proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return CliRun(out, err[0], proc.returncode, wall, first, usage.ru_maxrss / 1024, 1.0)


class Bench:
    def __init__(self, workload: Workload, seed: int, oracle: Oracle) -> None:
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.verdict = Verdict()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawns = 0
        self.deadline = clock() + RUN_LIMIT_S
        path = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        self.env["PYTHONPATH"] = path

    def spawn(self, cmd: list[str], inv: Invocation, env: dict) -> CliRun:
        """Unsharded invocations take the CPUs in turn; sharded ones all."""
        cpu = None if inv.shards > 1 else self.cpus[self.spawns % len(self.cpus)]
        self.spawns += 1
        return spawn(cmd, env, self.deadline, cpu)

    def order(self) -> list[Invocation]:
        invs = list(self.workload.invocations)
        return self.rng.sample(invs, len(invs))

    def check(self, inv: Invocation, run: CliRun, n_max: int | None = None) -> None:
        self.verdict.add(*check_invocation(inv, run.stdout, run.stderr, run.exit_code, self.oracle, n_max))

    def probe(self, inv: Invocation) -> float:
        """Seconds from spawn to the first record of `inv` cut to n = 1."""
        env = dict(self.env, PYTHONUNBUFFERED="1")
        run = self.spawn([sys.executable, "-c", ENTRY, *inv.args(n_max=1)], inv, env)
        self.check(inv, run, n_max=1)
        return run.ref_first_record_s

    def probe_round(self, samples: dict[Invocation, list[float]]) -> None:
        for inv in self.order():
            samples[inv].append(self.probe(inv))

    def run_pass(self, order: list[Invocation], trace_dir: Path | None = None) -> dict[Invocation, CliRun]:
        runs = {}
        for i, inv in enumerate(order):
            if trace_dir is None:
                cmd = [sys.executable, "-c", ENTRY, *inv.args()]
            else:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_dir / f"{i}.json"),
                       f"{self.workload.name}-{self.seed}-{i}", "--", *inv.args()]
            runs[inv] = self.spawn(cmd, inv, self.env)
            self.check(inv, runs[inv])
        self.verdict.add_digest(self.workload.digest, [runs[inv].stdout for inv in self.workload.invocations])
        return runs

    def measure(self, seconds: float) -> dict[str, tuple[float, str]]:
        # Set-up probes are interleaved with the passes, so that both sample
        # the machine over the same stretch of time.
        start = clock()
        self.probe_round({inv: [] for inv in self.workload.invocations})  # warm-up
        setup: dict[Invocation, list[float]] = {inv: [] for inv in self.workload.invocations}
        elements = sum(self.oracle.elements(inv) for inv in self.workload.invocations)
        walls, raw_walls, scales, rounds, peak = [], [], [], [], 0.0
        while True:
            round_start = clock()
            self.probe_round(setup)
            runs = self.run_pass(self.order())
            walls.append(sum(run.ref_wall_s for run in runs.values()))
            raw_walls.append(sum(run.wall_s for run in runs.values()))
            scales += [run.scale for run in runs.values()]
            peak = max([peak] + [run.peak_rss_mb for run in runs.values()])
            rounds.append(clock() - round_start)
            expected_end = clock() + statistics.median(rounds)
            if expected_end - start > seconds or expected_end > self.deadline:
                break
        while len(setup[self.workload.invocations[0]]) < SETUP_ROUNDS:
            self.probe_round(setup)
        wall = statistics.mean(walls)
        print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))
        print(f"raw_wall_s {statistics.mean(raw_walls)} s")
        print(f"speed_scale {statistics.mean(scales)}")
        return {
            "wall_s": (wall, "s"),
            "elements_per_s": (elements / wall, "1/s"),
            "setup_s": (sum(statistics.median(s) for s in setup.values()), "s"),
            "peak_rss_mb": (peak, "MB"),
        }

    def traced(self) -> dict[str, tuple[float, str]]:
        self.probe_round({inv: [] for inv in self.workload.invocations})  # warm-up
        order = self.order()
        plain = self.run_pass(order)
        trace_dir = OUT / f"tmp-{self.workload.name}-{self.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = self.run_pass(order, trace_dir)
        spans_path = OUT / f"spans-{self.workload.name}-{self.seed}.jsonl"
        dumps = []
        with open(spans_path, "w") as fh:
            for i, inv in enumerate(order):
                path = trace_dir / f"{i}.json"
                if not path.is_file():
                    self.verdict.failures["trace"] += 1
                    continue
                d = json.loads(path.read_text())
                path.unlink()
                dumps.append(d)
                fh.write(json.dumps({"invocation": d["invocation"], "args": inv.label(), "exit": d["exit"]}) + "\n")
                for sid, (name, start, end, parent) in enumerate(d["spans"]):
                    fh.write(json.dumps({"invocation": d["invocation"], "span": sid, "name": name,
                                         "start": start, "end": end, "parent": parent}) + "\n")
        trace_dir.rmdir()
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = layer_metrics(dumps, sum(len(run.stdout) for run in traced.values()))
        overhead = sum(r.ref_wall_s for r in traced.values()) - sum(r.ref_wall_s for r in plain.values())
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "menon" / "cli.py").is_file():
        print(f"perfbench: no menon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from menon.arith import tau_r_closed
    from menon.group_action import group_size

    bench = Bench(WORKLOADS[args.workload], args.seed, Oracle(group_size, tau_r_closed))
    return report(bench.traced() if args.trace else bench.measure(args.seconds), bench.verdict)


def report(metrics: dict[str, tuple[float, str]], verdict: Verdict) -> int:
    """Print the metrics and the result line; the exit code of the run."""
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_share {verdict.failed_share} share ({verdict.failed} of {verdict.attempted} records"
          + (f"; {dict(verdict.failures)}" if verdict.failed else "") + ")")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
