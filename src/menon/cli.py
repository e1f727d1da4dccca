"""Batch command-line front end.

Subcommands: verify (identity sweeps), burnside (three-way orbit-count
agreement), tau (iterated divisor function with cross-checked paths),
chains (divisor-chain counts), bench (sweep timings). All five share one
per-modulus loop (_run): each n is first held to the isqrt(n) budget of
factorizing it by trial division, then handed to the subcommand's row
function, which returns the record and any mismatch or disagreement.
tau_r_recursive reads n only through its exponent tuple, so all but bench
run it once per tuple met, from a table that _run drops on return; each
n still gets its own sweep, closed form or chain count to check.

Machine-readable records go to stdout (or --out) as JSON lines or RFC-4180
CSV. All exact integers are serialized as decimal strings. Record streams
are byte-deterministic for a fixed config: the elapsed_s field of verify
records is always 0.0, and wall-clock timing is reported by bench only.
verify, burnside and bench sweep the group and take --shards; under the
pool floor a sweep is one kernel call, whatever --shards is (see
group_action.fixed_point_sum). tau and chains take no --shards; they
refuse when r * tau(n)^2 exceeds the budget. Budget refusals are JSON
diagnostics on stderr, never partial records. A diagnostic carries
group_size when the refused work is one of the group's own operations
(a sweep, a direct fixed-point count, the orbit pass), none for the
factorizing and divisor-table checks, and neither group_size nor
estimated_ops when r alone puts |G| over the budget, which is decided
before either is computed. A mismatch or disagreement is
reported on stderr, its record is still written, and the run goes on.

Exit codes: 0 ok, 1 mismatch (it outranks a refusal), 2 budget refusal,
64 usage (including any n, --r, --shards or --budget above
arith.FACTORIZE_MAX), 70 internal error (any uncaught exception; the
traceback goes to stderr), 74 an OSError writing or flushing the records,
or stdout closed at start (a broken pipe too: one line on stderr; it ends
the run, outranks 1 and 2). 70 outranks 74: records an internal error
leaves unwritten get the 74 line, but the exit code stays 70.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from math import isqrt

from .arith import FACTORIZE_MAX, _factor, tau, tau2_explicit, tau_r_closed, tau_r_recursive
from .group_action import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _check_budget,
    count_chains,
    fixed_point_sum,
    group_size,
    orbit_count_burnside,
    orbits_brute_force,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_REFUSED = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE: a bug, never a verdict on the identity
EXIT_IOERR = 74  # sysexits EX_IOERR: the record stream is incomplete

VERIFY_FIELDS = ("n", "r", "lhs", "rhs", "group_size", "matched", "elapsed_s", "shards")
# unionfind_count is the block count of the explicit orbit partition, orbits_brute_force
BURNSIDE_FIELDS = ("n", "r", "burnside_count", "unionfind_count", "chain_count", "tau_r", "agree")
CHAINS_FIELDS = ("n", "r", "chain_count", "tau_r", "agree")
TAU_FIELDS = ("n", "r", "tau_r")
BENCH_FIELDS = ("n", "r", "group_size", "lhs", "elapsed_s", "elements_per_s", "shards")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range 'a..b', or a single 'a' meaning a..a.

    b may not exceed FACTORIZE_MAX, the largest modulus factorize accepts.
    """
    bad = ValueError(f"bad range {text!r}: need 1 <= a <= b <= {FACTORIZE_MAX}")
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise bad from None
    if lo < 1 or hi < lo or hi > FACTORIZE_MAX:
        raise bad
    return lo, hi


def _range_arg(text: str) -> tuple[int, int]:
    # argparse prints an ArgumentTypeError's message but replaces a
    # ValueError's with a generic "invalid value"
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_arg(text: str) -> int:
    # --r, --shards and --budget: an integer in [1, FACTORIZE_MAX], rejected
    # like a bad range. The cap keeps every |G| that a refusal prints short:
    # with a 63-bit budget, _check_floor refuses every sweep with r >= 12.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > FACTORIZE_MAX:
        raise argparse.ArgumentTypeError(f"must be <= {FACTORIZE_MAX}, got {text}")
    return value


class RecordWriter:
    """Writes dict records whose keys are the fields, in order, as JSON lines or CSV."""

    def __init__(self, fields: tuple[str, ...], fmt: str, stream) -> None:
        self.fields = fields
        self.fmt = fmt
        self.stream = stream
        if fmt == "csv":
            import csv

            self._csv = csv.writer(stream)
            self._csv.writerow(fields)

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def write(self, record: dict) -> None:
        if self.fmt == "json":
            self.stream.write(json.dumps(record) + "\n")
        elif self.fmt == "csv":
            self._csv.writerow([self._cell(record[f]) for f in self.fields])
        else:  # plain: bare values, one per line
            self.stream.write(f"{record[self.fields[-1]]}\n")


def _refuse(n: int, r: int, exc: BudgetExceededError) -> None:
    diag = {"n": str(n), "r": r, "refused": True}
    for key in ("group_size", "estimated_ops", "budget"):  # those that are known
        if getattr(exc, key) is not None:
            diag[key] = str(getattr(exc, key))
    print(json.dumps(diag), file=sys.stderr)


def _cannot_write(exc: OSError, stream) -> int:
    print(f"menon: error: cannot write records: {exc}", file=sys.stderr)
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())  # later flushes then pass
    return EXIT_IOERR


def _check_divisor_budget(n: int, r: int, budget: int) -> None:
    # tau and chains run r levels over divisor tables, none over tau(n)^2
    # steps. The recursion runs only for the first n of each exponent tuple,
    # which this still bounds; a refused n never touches the tau_r table.
    _check_budget("divisor tables of {n}", n, r, r * tau(n) ** 2, budget)


def _tau_r(n: int, r: int, shapes: dict[tuple[int, ...], int]) -> int:
    # tau_r_recursive(n, r), run once per exponent tuple of n in prime order
    shape = tuple([a for _, a in _factor(n)])
    value = shapes.get(shape)
    if value is None:
        value = shapes[shape] = tau_r_recursive(n, r)
    return value


# A row function maps one modulus, the parsed arguments and the
# invocation's tau_r table (for _tau_r) to (record, problem): the record to
# write, and the mismatch or disagreement to report on stderr, or None.


def _verify_row(n: int, args: argparse.Namespace, shapes: dict) -> tuple[dict, str | None]:
    lhs = fixed_point_sum(n, args.r, budget=args.budget, shards=args.shards)
    size = group_size(n, args.r)  # after the sweep, which refuses a huge group first
    rhs = size * _tau_r(n, args.r, shapes)
    matched = lhs == rhs
    record = {
        "n": str(n),
        "r": args.r,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "group_size": str(size),
        "matched": matched,
        "elapsed_s": 0.0,
        "shards": args.shards,
    }
    if matched:
        return record, None
    return record, f"identity mismatch at n={n}, r={args.r}: lhs={lhs} rhs={rhs}"


def _burnside_row(n: int, args: argparse.Namespace, shapes: dict) -> tuple[dict, str | None]:
    burnside = orbit_count_burnside(n, args.r, budget=args.budget, shards=args.shards)
    unionfind = len(orbits_brute_force(n, args.r, budget=args.budget))
    chains = count_chains(n, args.r)
    t_r = _tau_r(n, args.r, shapes)
    agree = burnside == unionfind == chains == t_r
    record = {
        "n": str(n),
        "r": args.r,
        "burnside_count": str(burnside),
        "unionfind_count": str(unionfind),
        "chain_count": str(chains),
        "tau_r": str(t_r),
        "agree": agree,
    }
    if agree:
        return record, None
    return record, (
        f"orbit-count disagreement at n={n}, r={args.r}: "
        f"burnside={burnside} unionfind={unionfind} chains={chains} tau_r={t_r}"
    )


def _tau_row(n: int, args: argparse.Namespace, shapes: dict) -> tuple[dict, str | None]:
    _check_divisor_budget(n, args.r, args.budget)
    recursive = _tau_r(n, args.r, shapes)
    closed = tau_r_closed(n, args.r)
    paths = {recursive, closed}
    if args.r == 2:
        paths.add(tau2_explicit(n))
    record = {"n": str(n), "r": args.r, "tau_r": str(recursive)}
    if len(paths) == 1:
        return record, None
    return record, f"tau_r path disagreement at n={n}, r={args.r}: {sorted(paths)}"


def _chains_row(n: int, args: argparse.Namespace, shapes: dict) -> tuple[dict, str | None]:
    _check_divisor_budget(n, args.r, args.budget)
    chains = count_chains(n, args.r)
    t_r = _tau_r(n, args.r, shapes)
    agree = chains == t_r
    record = {
        "n": str(n),
        "r": args.r,
        "chain_count": str(chains),
        "tau_r": str(t_r),
        "agree": agree,
    }
    if agree:
        return record, None
    return record, f"chain-count disagreement at n={n}, r={args.r}"


def _bench_row(n: int, args: argparse.Namespace, _shapes: dict) -> tuple[dict, str | None]:
    t0 = time.perf_counter()
    lhs = fixed_point_sum(n, args.r, budget=args.budget, shards=args.shards)
    elapsed = time.perf_counter() - t0
    size = group_size(n, args.r)  # after the sweep, which refuses a huge group first
    record = {
        "n": str(n),
        "r": args.r,
        "group_size": str(size),
        "lhs": str(lhs),
        "elapsed_s": elapsed,
        "elements_per_s": size / elapsed if elapsed > 0 else float(size),
        "shards": args.shards,
    }
    return record, None


def _run(args: argparse.Namespace, out, fields: tuple[str, ...], row) -> int:
    """Write row(n, args, shapes)'s record for every n in range, unless a budget refuses n.

    Each n first passes the isqrt(n) factor budget, since every row
    factorizes n. Problems go to stderr as they come; a mismatch outranks
    a refusal in the exit code; an OSError from writing out ends the run.
    """
    try:
        writer = RecordWriter(fields, args.fmt, out)  # writes a CSV header
    except OSError as exc:
        return _cannot_write(exc, out)
    shapes: dict[tuple[int, ...], int] = {}  # this call's tau_r table
    mismatched = refused = False
    lo, hi = args.n
    for n in range(lo, hi + 1):
        try:
            # Trial division runs up to isqrt(n); refuse before it starts,
            # and without a group size, whose phi(n) would factorize n.
            _check_budget("factorizing {n}", n, args.r, isqrt(n), args.budget)
            record, problem = row(n, args, shapes)
        except BudgetExceededError as exc:
            _refuse(n, args.r, exc)
            refused = True
            continue
        if problem is not None:
            print(problem, file=sys.stderr)
            mismatched = True
        try:
            writer.write(record)
        except OSError as exc:
            return _cannot_write(exc, out)
    try:
        out.flush()
    except OSError as exc:
        return _cannot_write(exc, out)
    return EXIT_MISMATCH if mismatched else EXIT_REFUSED if refused else EXIT_OK


_COMMANDS = {
    "verify": (_verify_row, VERIFY_FIELDS, "sweep the identity over a modulus range"),
    "burnside": (_burnside_row, BURNSIDE_FIELDS, "three-way orbit-count agreement per modulus"),
    "tau": (_tau_row, TAU_FIELDS, "iterated divisor function, all paths cross-checked"),
    "chains": (_chains_row, CHAINS_FIELDS, "divisor-chain count vs tau_r per modulus"),
    "bench": (_bench_row, BENCH_FIELDS, "sweep timing table"),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="menon", description=__doc__.partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.error = parser.error  # type: ignore[method-assign]
        p.add_argument("--n", required=True, type=_range_arg, metavar="A..B",
                       help="inclusive modulus range (single value allowed)")
        p.add_argument("--r", required=True, type=_count_arg, help="matrix dimension r >= 1")
        p.add_argument("--budget", type=_count_arg, default=DEFAULT_BUDGET,
                       help="max estimated elementary operations per call")
        if name in ("verify", "burnside", "bench"):  # the subcommands that sweep G
            p.add_argument("--shards", type=_count_arg, default=1,
                           help="workers per sweep, at most the CPUs, one piece each; a sweep under the pool floor runs whole in-process")
        # tau defaults to bare values, one per line
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       default="plain" if name == "tau" else "json", help="record format")
        p.add_argument("--out", default=None, help="write records to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    row, fields, _ = _COMMANDS[args.command]
    if args.out:
        try:
            stream = open(args.out, "w", newline="")
        except OSError as exc:
            print(f"menon: error: cannot open {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif sys.stdout is None:  # the interpreter started with descriptor 1 closed
        print("menon: error: cannot write records: stdout is closed", file=sys.stderr)
        return EXIT_IOERR
    else:
        stream = sys.stdout
    try:
        return _run(args, stream, fields, row)
    except Exception:
        import traceback

        traceback.print_exc()
        print("menon: internal error", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        try:
            stream.flush()  # what an internal error left in the buffer
        except OSError as exc:
            _cannot_write(exc, stream)  # the 70 stands: a bug outranks 74
        if args.out:
            stream.close()


def entry() -> None:
    # Everything imported by now lives until exit: freeze it into the
    # permanent generation, so neither a run's full collections nor the
    # interpreter's shutdown collections walk or free it. Pool workers are
    # forked after this, the use the gc docs name. Not in main(): tests and
    # perfbench's tracer call it in-process, and a freeze there would pin
    # every cycle their process holds for the rest of its life.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
