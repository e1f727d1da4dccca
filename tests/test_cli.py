"""CLI surface: record schemas, exit codes, determinism, refusals."""

import csv
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from menon import arith, cli, group_action
from menon.arith import FACTORIZE_MAX, tau_r_closed
from menon.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    main,
    parse_range,
)

VERIFY_FIELDS = ["n", "r", "lhs", "rhs", "group_size", "matched", "elapsed_s", "shards"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv):
    """Run the CLI in a subprocess whose address space is capped at 1 GiB,
    with a 20 s timeout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cap = (2**30, 2**30)
    return subprocess.run(
        [sys.executable, "-m", "menon.cli", *argv], capture_output=True, text=True, env=env,
        timeout=20, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
    )


# --- config plumbing -----------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1..30", (1, 30)),
        ("12", (12, 12)),
        ("7..7", (7, 7)),
        (str(2**63 - 1), (2**63 - 1, 2**63 - 1)),  # arith.FACTORIZE_MAX
    ],
)
def test_parse_range(text, expected):
    assert parse_range(text) == expected


@pytest.mark.parametrize(
    "bad", ["0..5", "9..2", "", "..", "a..b", "-3", str(2**63), f"1..{2**63}"]
)
def test_parse_range_rejects(bad):
    with pytest.raises(ValueError):
        parse_range(bad)


BAD_RANGE = f"need 1 <= a <= b <= {FACTORIZE_MAX}"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "--n", "1..5"], "required: --r"),
        (["verify", "--r", "2"], "required: --n"),
        (["verify", "--n", "5..1", "--r", "2"], BAD_RANGE),  # inverted range
        (["verify", "--n", "1..5", "--r", "2", "--format", "xml"], "invalid choice: 'xml'"),
        (["frobnicate", "--n", "1..5", "--r", "2"], "invalid choice: 'frobnicate'"),
        (["verify", "--n", "1..3", "--r", "1", "--seed", "0"], "unrecognized arguments: --seed"),
        # beyond factorize's range; isqrt(2^64) = 2^32 passes this budget
        (["tau", "--n", "18446744073709551616", "--r", "2", "--budget", "10000000000"], BAD_RANGE),
        # counts below 1 are refused by the parser, naming the argument
        (["verify", "--n", "1..2", "--r", "0"], "argument --r: must be >= 1, got 0"),
        (["verify", "--n", "1..2", "--r", "1", "--shards", "0"], "argument --shards: must be >= 1"),
        (["verify", "--n", "1..2", "--r", "1", "--budget", "0"], "argument --budget: must be >= 1"),
        (["verify", "--n", "1..2", "--r", "-3"], "argument --r: must be >= 1, got -3"),
        (["tau", "--n", "1..2", "--r", "two"], "argument --r: not an integer: 'two'"),
        # only the subcommands that sweep the group take --shards
        (["tau", "--n", "12", "--r", "2", "--shards", "2"], "unrecognized arguments: --shards 2"),
        (["chains", "--n", "12", "--r", "2", "--shards", "2"], "unrecognized arguments: --shards 2"),
        # counts above FACTORIZE_MAX too; a 101-digit budget would let r = 26
        # through to a refusal that prints a |G| of over 4300 digits
        (["verify", "--n", "4611686018427387904", "--r", "26", "--budget", "1" + "0" * 100],
         f"argument --budget: must be <= {FACTORIZE_MAX}"),
        (["verify", "--n", "5", "--r", str(FACTORIZE_MAX + 1)], "argument --r: must be <="),
        (["verify", "--n", "5", "--r", "2", "--shards", str(2**64)], "argument --shards: must be <="),
    ],
    ids=[f"argv{i}" for i in range(17)],
)
def test_usage_errors_exit_64(capsys, argv, reason):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage: menon")
    assert reason in err
    assert "Traceback" not in err


# --- verify ----------------------------------------------------------------------


def test_verify_json_records(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "1..5", "--r", "2")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    for line, n in zip(lines, range(1, 6)):
        rec = json.loads(line)
        assert list(rec) == VERIFY_FIELDS
        assert rec["n"] == str(n) and rec["r"] == 2
        assert rec["matched"] is True
        assert rec["lhs"] == rec["rhs"]
        assert int(rec["lhs"]) >= 1  # decimal-string round trip
        assert rec["elapsed_s"] == 0.0
        assert rec["shards"] == 1


def test_verify_single_value_record(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2..2", "--r", "2", "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["lhs"] == rec["rhs"] == "6"


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1..4", "--r", "1", "--format", "csv")
    assert code == EXIT_OK
    assert "\r\n" in out  # RFC 4180 line endings
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == VERIFY_FIELDS
    assert len(rows) == 5
    assert rows[1][0] == "1" and rows[1][5] == "true"


def test_verify_budget_refusal(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n", "100..100", "--r", "4", "--budget", "1000"
    )
    assert code == EXIT_REFUSED
    assert out == ""  # no partial results in the record stream
    diag = json.loads(err.splitlines()[0])
    assert diag["refused"] is True
    assert diag["group_size"] == str(100**6 * 40**4)
    assert diag["budget"] == "1000"


def test_refusal_at_the_largest_budget_prints_the_exact_group_size(capsys):
    # With a 63-bit budget the floor refuses every r >= 12, so r = 11 at
    # n = 2^62 prints the largest |G| a refusal can: 2^(62*55 + 61*11).
    code, out, err = run_cli(
        capsys, "verify", "--n", "4611686018427387904", "--r", "11", "--budget", str(FACTORIZE_MAX)
    )
    assert code == EXIT_REFUSED and out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["group_size"] == str(2**4081)
    assert diag["budget"] == str(FACTORIZE_MAX)


def test_verify_partial_refusal_keeps_other_records(capsys):
    # budget admits r=2 sweeps for tiny n only;  big n refuse, small n report
    code, out, err = run_cli(capsys, "verify", "--n", "2..40", "--r", "2", "--budget", "2000")
    assert code == EXIT_REFUSED
    assert 0 < len(out.splitlines()) < 39
    assert all(json.loads(line)["refused"] for line in err.splitlines())


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    # a mismatch cannot be produced honestly (the identity is a theorem),
    # so fake tau_r to pin the exit-code contract
    monkeypatch.setattr(cli, "tau_r_recursive", lambda n, r: 3)
    code, out, err = run_cli(capsys, "verify", "--n", "5..5", "--r", "1")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["matched"] is False
    assert "mismatch" in err


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--n", "1..3", "--r", "1", "--out", str(path))
    assert code == EXIT_OK and out == ""
    lines = path.read_text().splitlines()
    assert [json.loads(l)["n"] for l in lines] == ["1", "2", "3"]


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--n", "1..2", "--r", "1", "--out", str(tmp_path / "no" / "dir" / "x")
    )
    assert code == EXIT_USAGE and "cannot open" in err


def test_verify_output_is_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--n", "1..12", "--r", "2")
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]


# --- burnside / chains / tau / bench ---------------------------------------------


def test_burnside_record(capsys):
    code, out, _ = run_cli(capsys, "burnside", "--n", "12..12", "--r", "2")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert list(rec) == ["n", "r", "burnside_count", "unionfind_count", "chain_count", "tau_r", "agree"]
    assert (
        rec["burnside_count"]
        == rec["unionfind_count"]
        == rec["chain_count"]
        == rec["tau_r"]
        == "18"
    )
    assert rec["agree"] is True


def test_burnside_degenerate_modulus(capsys):
    code, out, _ = run_cli(capsys, "burnside", "--n", "1..1", "--r", "3")
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["burnside_count"] == rec["tau_r"] == "1"


def test_burnside_hand_case(capsys):
    code, out, _ = run_cli(capsys, "burnside", "--n", "2..2", "--r", "2")
    assert code == EXIT_OK
    assert json.loads(out)["burnside_count"] == "3"


def test_trivial_group_sweeps_at_the_largest_admitted_r():
    # At n = 1 the sweep estimate is r^2, so the default budget admits
    # r = 10^4. The sweep answers from the one element; a lead of G(1, 10^4)
    # would head for about 10 GB, which the cap turns into a MemoryError.
    t0 = time.perf_counter()
    proc = run_capped("verify", "--n", "1", "--r", "10000")
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    rec = json.loads(proc.stdout)
    assert rec["lhs"] == rec["rhs"] == rec["group_size"] == "1" and rec["matched"] is True
    # burnside's orbit pass is still refused: 49 995 000 transvections
    proc = run_capped("burnside", "--n", "1", "--r", "10000")
    assert proc.returncode == EXIT_REFUSED and proc.stdout == ""
    diag = json.loads(proc.stderr)
    assert diag["group_size"] == "1" and diag["estimated_ops"] == str(49995000 * 10**8)


def test_burnside_refusal(capsys):
    code, out, err = run_cli(capsys, "burnside", "--n", "40..40", "--r", "2", "--budget", "10000")
    assert code == EXIT_REFUSED and out == ""
    assert json.loads(err.splitlines()[0])["refused"] is True


def test_tau_prints_plain_values(capsys):
    code, out, _ = run_cli(capsys, "tau", "--n", "12", "--r", "2")
    assert code == EXIT_OK and out == "18\n"
    code, out, _ = run_cli(capsys, "tau", "--n", "1", "--r", "7")
    assert out == "1\n"
    code, out, _ = run_cli(capsys, "tau", "--n", "8", "--r", "3")
    assert out == "20\n"


def test_tau_range_and_json(capsys):
    code, out, _ = run_cli(capsys, "tau", "--n", "1..4", "--r", "2", "--format", "json")
    recs = [json.loads(l) for l in out.splitlines()]
    assert [r["tau_r"] for r in recs] == ["1", "3", "3", "6"]


def test_chains_records(capsys):
    code, out, _ = run_cli(capsys, "chains", "--n", "2..2", "--r", "2")
    rec = json.loads(out)
    assert code == EXIT_OK
    assert rec["chain_count"] == rec["tau_r"] == "3" and rec["agree"] is True


def test_bench_rows_and_shard_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "bench", "--n", "2..10", "--r", "2")
    assert code1 == EXIT_OK
    rows = [json.loads(l) for l in out1.splitlines()]
    assert len(rows) == 9
    assert all(r["elapsed_s"] >= 0 and int(r["group_size"]) >= 1 for r in rows)

    code2, out2, _ = run_cli(capsys, "bench", "--n", "6..6", "--r", "3", "--shards", "2")
    code3, out3, _ = run_cli(capsys, "bench", "--n", "6..6", "--r", "3", "--shards", "1")
    lhs2 = json.loads(out2)["lhs"]
    lhs3 = json.loads(out3)["lhs"]
    assert lhs2 == lhs3
    assert json.loads(out2)["shards"] == 2


def test_bench_group_size_report(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "4..4", "--r", "3")
    assert json.loads(out)["group_size"] == "512"  # 4^3 * 2^3


def test_bench_refusal(capsys):
    code, out, err = run_cli(capsys, "bench", "--n", "100..100", "--r", "4", "--budget", "1000")
    assert code == EXIT_REFUSED and out == ""
    assert json.loads(err.splitlines()[0])["refused"] is True


def test_zero_shards_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--n", "1..2", "--r", "1", "--shards", "0")
    assert code == EXIT_USAGE


def test_tau_path_disagreement_exits_1(capsys, monkeypatch):
    # all paths agree on real inputs, so fake one to pin the exit code;
    # like every command, tau reports each disagreement and goes on
    monkeypatch.setattr(cli, "tau_r_closed", lambda n, r: -1)
    code, out, err = run_cli(capsys, "tau", "--n", "11..12", "--r", "2")
    assert code == EXIT_MISMATCH
    assert out.splitlines() == ["3", "18"]  # the defining recursion's values
    lines = err.splitlines()
    assert len(lines) == 2 and all("disagreement" in line for line in lines)


def test_internal_error_maps_to_exit_70(capsys, monkeypatch):
    # an uncaught exception is a bug, kept apart from a mismatch (exit 1)
    def blow_up(n, r, budget, shards):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "fixed_point_sum", blow_up)
    code, out, err = run_cli(capsys, "verify", "--n", "2..2", "--r", "1")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert "RuntimeError: forced" in err and "internal error" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("tau", "--n", "1..5", "--r", "2"),  # five values wait in the buffer for the last flush
    ("verify", "--n", "1..3000", "--r", "1"),  # 3000 records overflow it: a write fails mid-run
])
def test_full_record_stream_exits_74(capsys, argv):
    # the run is no mismatch (exit 1) and no bug (exit 70)
    code, _, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == cli.EXIT_IOERR == 74
    assert err == "menon: error: cannot write records: [Errno 28] No space left on device\n"


def test_closed_stdout_pipe_exits_74_without_a_traceback():
    # as `menon verify ... | head -1`: 3000 records outgrow the pipe, whose
    # reader leaves after the first line
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "menon.cli", "verify", "--n", "1..3000", "--r", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert json.loads(proc.stdout.readline())["n"] == "1"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_IOERR
    assert err == "menon: error: cannot write records: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_internal_error_on_a_full_record_stream_exits_70(capsys, monkeypatch, to_stdout):
    # the records buffered when the bug struck cannot be written either: one
    # line says so, and the bug (70) outranks the incomplete stream (74)
    sweep = cli.fixed_point_sum

    def blow_up_at_5(n, r, budget, shards):
        if n == 5:
            raise RuntimeError("forced")
        return sweep(n, r, budget=budget, shards=shards)

    monkeypatch.setattr(cli, "fixed_point_sum", blow_up_at_5)
    argv = ["verify", "--n", "1..5", "--r", "1"]
    with open("/dev/full", "w") as full:
        if to_stdout:
            monkeypatch.setattr(sys, "stdout", full)
        else:
            argv += ["--out", "/dev/full"]
        code = main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL
    assert "RuntimeError: forced" in err
    assert err.endswith(
        "menon: internal error\n"
        "menon: error: cannot write records: [Errno 28] No space left on device\n"
    )


def test_stdout_closed_at_start_exits_74_without_a_traceback():
    # as `menon tau --n 1..5 --r 2 >&-`, where the interpreter sets sys.stdout to None
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "menon.cli", "tau", "--n", "1..5", "--r", "2"],
        stderr=subprocess.PIPE, text=True, env=env, timeout=60, preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == cli.EXIT_IOERR
    assert proc.stderr == "menon: error: cannot write records: stdout is closed\n"


def test_start_up_loads_no_process_pool_machinery():
    # concurrent.futures pulls in multiprocessing, a fifth of every start;
    # only a sweep on the pool may load it, and every sweep of n <= 60 at
    # r = 2 is under group_action._POOL_MIN_OPS, so its two shards run in
    # this process
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from menon.cli import main\n"
        "assert main(['tau', '--n', '1..3', '--r', '2']) == 0\n"
        "assert main(['verify', '--n', '1..60', '--r', '2', '--shards', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_start_up_loads_no_dataclasses_inspect_or_typing():
    # dataclasses pulls in inspect, ast, dis and tokenize, and typing is as
    # large; the package needs none of them. -S keeps site hooks from
    # loading any of them first
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import menon.cli, sys\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_deep_tau_r_does_not_exhaust_the_stack(capsys):
    # pins r far beyond the interpreter's recursion limit
    code, out, _ = run_cli(capsys, "tau", "--n", "12", "--r", "3000")
    assert code == EXIT_OK and out == f"{tau_r_closed(12, 3000)}\n"
    code, out, _ = run_cli(capsys, "chains", "--n", "12", "--r", "3000")
    rec = json.loads(out)
    assert code == EXIT_OK and rec["chain_count"] == rec["tau_r"] == str(tau_r_closed(12, 3000))


@pytest.mark.parametrize("command", ["verify", "burnside", "tau", "chains", "bench"])
def test_factorization_over_budget_is_refused_unfactorized(capsys, monkeypatch, command):
    # trial division of this prime would run to 1e9; the refusal must
    # come without factorizing it, so it carries no group size
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n} called")

    # _factor runs the trial division for factorize and everything else
    for module in (arith, group_action, cli):
        monkeypatch.setattr(module, "_factor", no_trial_division)
    code, out, err = run_cli(capsys, command, "--n", "1000000000000000003", "--r", "2")
    assert code == EXIT_REFUSED and out == ""
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["refused"] is True and "group_size" not in diag
    assert diag["estimated_ops"] == str(10**9) and diag["budget"] == str(cli.DEFAULT_BUDGET)


@pytest.mark.parametrize("argv", [("verify", "--r", "1"), ("tau", "--r", "3")], ids=["verify", "tau"])
def test_each_modulus_is_trial_divided_once(capsys, argv):
    # every n of the range is factorized at least once (its phi, its tau),
    # so 200 misses of the cache mean exactly one trial division per n
    arith._factor.cache_clear()
    code, out, _ = run_cli(capsys, *argv, "--n", "1..200")
    assert code == EXIT_OK and len(out.splitlines()) == 200
    assert arith._factor.cache_info().misses == 200


@pytest.mark.parametrize("command", ["verify", "burnside", "bench"])
def test_large_r_is_refused_without_a_group_order(capsys, command):
    # |G(10, 100)| has over 4 950 digits, more than int-to-str prints; for
    # n >= 2, r(r - 1)/2 >= budget.bit_length() refuses before computing it
    code, out, err = run_cli(capsys, command, "--n", "10", "--r", "100")
    assert code == EXIT_REFUSED and out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag == {"n": "10", "r": 100, "refused": True, "budget": str(cli.DEFAULT_BUDGET)}


def test_huge_r_is_refused_promptly():
    # sweeping, or only sizing, |G(2, 100000)| = 2^(r(r-1)/2) runs past any
    # timeout that a test can afford
    proc = run_capped("verify", "--n", "2", "--r", "100000")
    assert proc.returncode == EXIT_REFUSED and proc.stdout == ""
    assert json.loads(proc.stderr)["refused"] is True


@pytest.mark.parametrize("command", ["tau", "chains"])
def test_divisor_tables_over_budget_are_refused(capsys, command):
    # r levels over tables of tau(12) = 6 divisors: 1000 * 6^2 = 36 000
    code, out, err = run_cli(capsys, command, "--n", "12", "--r", "1000", "--budget", "10000")
    assert code == EXIT_REFUSED and out == ""
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["refused"] is True and "group_size" not in diag
    assert diag["estimated_ops"] == "36000" and diag["budget"] == "10000"


# (argv, exit code, sha256 of stdout, sha256 of stderr). A refactor keeps
# every byte of the records and diagnostics; a change of format updates
# these on purpose. "verify --n 1..9 --r 4" refuses n = 7..9.
E3B0 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no bytes
GOLDEN = [
    ("verify --n 1..12 --r 1", EXIT_OK,
     "acd8eedd9cfc6b2f564dd27c473469e3fe69f473b0503d91f476b5fa2ec80761", E3B0),
    ("verify --n 1..10 --r 2 --format csv", EXIT_OK,
     "9431ccdba2bfcaec2e9bc98af435ab7a7858613a838a532a160e6f7a8e59656a", E3B0),
    ("verify --n 1..6 --r 3", EXIT_OK,
     "0c024a4989609d09f5d688b23de06997e41f7aff5ac61414399239d1bf983064", E3B0),
    ("verify --n 1..9 --r 4", EXIT_REFUSED,
     "273b2308b4b841c8099f6b81155ea86075b8c3cbae88a116ebe1c2832d3baec8",
     "28bbca59f4035e54480ce9f51e49cfb6069b2c275a6b7eeb9aefe929379b4dd0"),
    ("burnside --n 1..6 --r 2", EXIT_OK,
     "85a42dbf18818e92ae48d2f043d7b2e4d7c6e8a4caadcaa2a861ba0140c836b6", E3B0),
    ("chains --n 1..200 --r 4", EXIT_OK,
     "b752e8e72726397903727fb1cfdb9f0653519ada28dff570d576e592b1641ed9", E3B0),
    ("tau --n 1..500 --r 3", EXIT_OK,
     "d8e7c971d3c8548aec2bb6fade568c9387b34022d55bc5d1c97bad080da12434", E3B0),
]


def test_records_and_diagnostics_keep_their_bytes(capsys):
    for argv, code, out_sha, err_sha in GOLDEN:
        got_code, out, err = run_cli(capsys, *argv.split())
        got = (got_code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
        assert got == (code, out_sha, err_sha), argv


# --- the per-invocation tau_r table -----------------------------------------------


def shape(n):
    # the exponent tuple of n in prime order, all that tau_r_recursive reads
    return tuple(a for _, a in arith.factorize(n))


def count_recursions(monkeypatch, wrong_shape=None):
    """Patch cli.tau_r_recursive to record each n it runs on; at wrong_shape
    it returns one more than the true value."""
    real = cli.tau_r_recursive
    seen = []

    def recursion(n, r):
        seen.append(n)
        return real(n, r) + (shape(n) == wrong_shape)

    monkeypatch.setattr(cli, "tau_r_recursive", recursion)
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        "tau --n 1..2000 --r 6",
        "chains --n 1..300 --r 5",
        "burnside --n 1..16 --r 2",
        "verify --n 1..300 --r 1",
        "verify --n 1..12 --r 3",
    ],
)
def test_tau_r_recursion_runs_once_per_exponent_tuple(capsys, monkeypatch, argv):
    # through the cli name, so that a rebinding of it sees every run
    seen = count_recursions(monkeypatch)
    code, out, _ = run_cli(capsys, *argv.split())
    _, hi = parse_range(argv.split()[2])
    assert code == EXIT_OK and len(out.splitlines()) == hi
    assert sorted(map(shape, seen)) == sorted({shape(n) for n in range(1, hi + 1)})


@pytest.mark.parametrize("command", ["tau", "chains", "verify"])
def test_a_wrong_table_entry_is_reported_at_every_modulus_of_its_tuple(capsys, monkeypatch, command):
    # the recursion errs once, at n = 12; the closed form, the chain count
    # or the sweep of each later n of shape (2, 1) still disagrees with the
    # reused value
    seen = count_recursions(monkeypatch, wrong_shape=(2, 1))
    code, out, err = run_cli(capsys, command, "--n", "1..100", "--r", "2")
    assert code == EXIT_MISMATCH and len(out.splitlines()) == 100
    reported = [int(n) for n in re.findall(r"(?:disagreement|mismatch) at n=(\d+),", err)]
    assert len(err.splitlines()) == len(reported)
    assert reported == [n for n in range(1, 101) if shape(n) == (2, 1)]  # 12, 20, ..., 99
    assert seen.count(12) == 1 and not set(seen) & set(reported[1:])


# (argv, sha256 of stdout, sha256 of stderr), taken before the table was
# used by each command. The divisor budget refuses every n of some exponent
# tuples: tau(n) >= 9 for the first (36, 48, 60, 72, 80), tau(n) >= 8 for
# the second. The sweep budget refuses every n >= 13 and 11 for the third,
# among them n of tuples no admitted n has, like 18 = 2 * 3^2 and 30.
REFUSALS_AMONG_HITS = [
    ("tau --n 1..80 --r 4 --budget 300",
     "9cb951830260ecaf6938aa54fe71557cd6f9ebde57555e6b9d86e102d257e595",
     "fdbfd998ebbc4fd9064869ff3d0e701d00d1cb0b950262ae0408a0695efda7e1"),
    ("chains --n 1..80 --r 3 --budget 150",
     "0e119146a7483c1f9efecc76a9140eaf5cec9ca86c428111b5481f8b0822b46f",
     "1c6fb48e6367be6b0b4900bb5ae1375b130bd39cd09678ab7028bffa34d8e48f"),
    ("verify --n 1..40 --r 2 --budget 2000",
     "9cad75b8b54e8dd239fd9b44d00cd01c1b2680726f3bc03bcfa54f80c5987373",
     "5c4eeb1cd1d35f081cf133eaccb99b676e837d102fa94de7e678f25fda426dba"),
]


@pytest.mark.parametrize("argv, out_sha, err_sha", REFUSALS_AMONG_HITS)
def test_refusals_between_table_hits_keep_their_bytes(capsys, monkeypatch, argv, out_sha, err_sha):
    seen = count_recursions(monkeypatch)
    code, out, err = run_cli(capsys, *argv.split())
    got = (code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
    assert got == (EXIT_REFUSED, out_sha, err_sha)
    # some refused n have a tuple that no admitted n has (for tau and
    # chains every refused n does), so a refused n that wrote the table
    # would add its own tuple to seen
    refused = {int(json.loads(line)["n"]) for line in err.splitlines()}
    lo, hi = parse_range(argv.split()[2])
    admitted = {shape(n) for n in range(lo, hi + 1) if n not in refused}
    assert {shape(n) for n in refused} - admitted
    assert sorted(map(shape, seen)) == sorted(admitted)


def test_the_tau_r_table_is_freed_when_the_call_returns(tmp_path):
    # 20 000 moduli hold 193 exponent tuples: a table of about 28 KB while
    # the call runs, nothing after it. The peak measured 0.22 MB on CPython
    # 3.11; a table keyed by n would hold 20 000 entries, over 1 MB.
    out = tmp_path / "tau.txt"
    main(["tau", "--n", "1", "--r", "6", "--out", str(out)])  # argparse's lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["tau", "--n", "1..20000", "--r", "6", "--out", str(out)])
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and len(out.read_text().splitlines()) == 20000
    assert held < 8 * 2**10, held
    assert peak < 512 * 2**10, peak
