"""Layer tracing for the `menon` CLI, done from outside the package.

Run as a script, it stands in for the `menon` entry point of one traced
invocation:

    python3 perfbench/tracer.py OUT.json INVOCATION_ID -- verify --n 1..12 --r 3

It imports the package, rebinds every module attribute through which a
caller reaches a layer boundary (cli and identity import some functions by
name, so each binding is replaced), runs `menon.cli.main` in this process
and, when it returns, writes the spans and counters to OUT.json. Nothing in
the package changes.

Frequent calls (factorize, units, record writes, elimination) are counted
and timed in aggregate; the others also get a span each: name, start, end
and parent, under one id per invocation.

Sharded sweeps run in forked pool workers whose counters are lost, so after
each sweep the tracer calls `_fixed_point_sum_shard` on every shard's
bounds in this process. Those replays give the shard busy times and the
kernel counters; the sweep span itself is the real pooled call. It then
drains `_iter_cells` over the same bounds, so that kernel busy time is
shard self time minus enumeration time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from math import gcd

clock = time.perf_counter


def _group_order(n: int, r: int) -> int:
    # Independent of menon, so that counting pairs calls nothing traced.
    phi = sum(1 for a in range(n) if gcd(n, a) == 1)
    return n ** (r * (r - 1) // 2) * phi**r


class Trace:
    """Spans and counters of one invocation, kept in memory until it ends."""

    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.spans: list = []
        self.stack = [None]  # index of the innermost open span
        self.child = [0.0]  # traced time spent below each open call
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False  # set while the tracer drains _iter_cells
        self.shard_times: list[float] = []

    def call(self, name: str, span: bool, fn, *args, **kwargs):
        if span:
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1]
            self.stack.append(sid)
        self.child.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            spent = t1 - t0
            below = self.child.pop()
            self.child[-1] += spent
            self.calls[name] += 1
            self.busy[name] += spent
            self.self_busy[name] += spent - below
            if span:
                self.stack.pop()
                self.spans[sid] = (name, t0, t1, parent)

    def layer(self, name: str, fn, span: bool = True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self.call(name, span, fn, *args, **kwargs)

        return wrapper

    def dump(self, exit_code: int) -> dict:
        return {
            "invocation": self.invocation,
            "exit": exit_code,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_busy),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def install(trace: Trace) -> None:
    """Wrap the layer boundaries of the imported menon modules."""
    import menon
    from menon import arith, cli, group_action, identity

    modules = (menon, arith, group_action, identity, cli)

    def rebind(original, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    counts = trace.counts
    rebind(arith.factorize, trace.layer("arith.factorize", arith.factorize, span=False))
    for fn in (arith.tau_r_recursive, arith.tau_r_closed):
        rebind(fn, trace.layer("arith.tau_r", fn))
    rebind(group_action.units, trace.layer("group_action.units", group_action.units, span=False))
    rebind(group_action.count_chains, trace.layer("group_action.chains", group_action.count_chains))
    cli.RecordWriter.write = trace.layer("cli.serialize", cli.RecordWriter.write, span=False)

    solution_count = identity._solution_count

    @functools.wraps(solution_count)
    def counted_solution_count(n, mat):
        counts["kernel.elimination_calls"] += 1
        return solution_count(n, mat)

    rebind(solution_count, counted_solution_count)

    real_pool = group_action.ProcessPoolExecutor

    def counted_pool(*args, **kwargs):
        counts["pool.pools"] += 1
        return real_pool(*args, **kwargs)

    rebind(real_pool, counted_pool)

    real_unionfind = group_action.orbits_brute_force

    @functools.wraps(real_unionfind)
    def unionfind(n, r, *args, **kwargs):
        blocks = trace.call("group_action.unionfind", True, real_unionfind, n, r, *args, **kwargs)
        counts["unionfind.pairs"] += _group_order(n, r) * n**r
        return blocks

    rebind(real_unionfind, unionfind)

    real_shard = group_action._fixed_point_sum_shard

    # functools.wraps keeps the name the pool pickles the shard function by.
    @functools.wraps(real_shard)
    def shard(args):
        _, _, lo, hi = args
        t0 = clock()
        part = trace.call("group_action.shard", True, real_shard, args)
        trace.shard_times.append(clock() - t0)
        counts["kernel.elements"] += hi - lo
        return part

    rebind(real_shard, shard)

    real_sweep = group_action.fixed_point_sum
    iter_cells = group_action._iter_cells

    def drain(n, r, lo, hi):
        for _ in iter_cells(n, r, lo, hi):
            pass

    @functools.wraps(real_sweep)
    def sweep(n, r, *args, **kwargs):
        shards = kwargs.get("shards", args[1] if len(args) > 1 else 1)
        sid = len(trace.spans)
        t0 = clock()
        total = trace.call("group_action.sweep", True, real_sweep, n, r, *args, **kwargs)
        wall = clock() - t0
        bounds = group_action._shard_bounds(_group_order(n, r), shards)
        trace.stack.append(sid)  # replays and drains are caused by this sweep
        try:
            replay(n, r, bounds, total, wall)
        finally:
            trace.stack.pop()
        return total

    def replay(n, r, bounds, total, wall):
        if len(bounds) > 1:
            trace.shard_times = []
            if sum(shard((n, r, lo, hi)) for lo, hi in bounds) != total:
                raise AssertionError(f"replayed shards disagree with the pooled sweep at n={n}, r={r}")
            slowest = max(trace.shard_times)
            counts["pool.overhead_s"] += wall - slowest
            counts["pool.slowest_s"] += slowest
            counts["pool.mean_s"] += sum(trace.shard_times) / len(trace.shard_times)
        trace.paused = True
        try:
            for lo, hi in bounds:
                trace.call("group_action.enumerate", True, drain, n, r, lo, hi)
                counts["enumerate.elements"] += hi - lo
        finally:
            trace.paused = False

    rebind(real_sweep, sweep)


def layer_metrics(dumps: list[dict], stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    busy: dict[str, float] = defaultdict(float)
    self_busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for d in dumps:
        for src, dst in ((d["busy"], busy), (d["self"], self_busy), (d["calls"], calls), (d["counts"], counts)):
            for k, v in src.items():
                dst[k] += v
    kernel_elements = int(counts["kernel.elements"])
    eliminations = int(counts["kernel.elimination_calls"])
    kernel_busy = self_busy["group_action.shard"] - busy["group_action.enumerate"]
    mean_shard = counts["pool.mean_s"]
    return {
        "identity.kernel.busy_s": (kernel_busy, "s"),
        "identity.kernel.elements_per_s": (kernel_elements / kernel_busy if kernel_busy > 0 else 0.0, "1/s"),
        "identity.kernel.elimination_calls": (eliminations, "count"),
        "identity.kernel.closed_form_elements": (kernel_elements - eliminations, "count"),
        "group_action.enumerate.elements": (int(counts["enumerate.elements"]), "count"),
        "group_action.enumerate.busy_s": (busy["group_action.enumerate"], "s"),
        "group_action.units.calls": (calls["group_action.units"], "count"),
        "group_action.units.busy_s": (busy["group_action.units"], "s"),
        "group_action.pool.pools": (int(counts["pool.pools"]), "count"),
        "group_action.pool.overhead_s": (counts["pool.overhead_s"], "s"),
        "group_action.pool.shard_imbalance": (counts["pool.slowest_s"] / mean_shard if mean_shard > 0 else 0.0, "ratio"),
        "group_action.sweep.busy_s": (busy["group_action.sweep"], "s"),
        "group_action.unionfind.pairs": (int(counts["unionfind.pairs"]), "count"),
        "group_action.unionfind.busy_s": (busy["group_action.unionfind"], "s"),
        "group_action.chains.calls": (calls["group_action.chains"], "count"),
        "group_action.chains.busy_s": (busy["group_action.chains"], "s"),
        "arith.factorize.calls": (calls["arith.factorize"], "count"),
        "arith.factorize.busy_s": (busy["arith.factorize"], "s"),
        "arith.tau_r.calls": (calls["arith.tau_r"], "count"),
        "arith.tau_r.busy_s": (busy["arith.tau_r"], "s"),
        "cli.serialize.records": (calls["cli.serialize"], "count"),
        "cli.serialize.bytes": (stdout_bytes, "bytes"),
        "cli.serialize.busy_s": (busy["cli.serialize"], "s"),
    }


def main(argv: list[str]) -> int:
    out_path, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json INVOCATION_ID -- MENON_ARGS...")
    trace = Trace(invocation)
    install(trace)
    from menon import cli

    code = trace.call("cli.main", True, cli.main, cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(trace.dump(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
