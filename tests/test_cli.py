"""CLI surface: record schemas, exit codes, determinism, refusals."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from menon import arith, cli
from menon.arith import FACTORIZE_MAX, tau_r_closed
from menon.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    main,
    parse_range,
)
from menon.identity import IdentityReport

VERIFY_FIELDS = ["n", "r", "lhs", "rhs", "group_size", "matched", "elapsed_s", "shards"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # so fake the report to pin the exit-code contract
    def fake_verify_star(n, r, budget, shards):
        return IdentityReport(
            n=n, r=r, lhs=3, rhs=4, group_size=1, matched=False, elapsed=0.0, shards=shards
        )

    monkeypatch.setattr(cli, "verify_star", fake_verify_star)
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

    monkeypatch.setattr(cli, "verify_star", blow_up)
    code, out, err = run_cli(capsys, "verify", "--n", "2..2", "--r", "1")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert "RuntimeError: forced" in err and "internal error" in err


def test_start_up_loads_no_process_pool_machinery():
    # concurrent.futures pulls in multiprocessing, a fifth of every start;
    # only a sharded sweep may load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from menon.cli import main\n"
        "assert main(['tau', '--n', '1..3', '--r', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
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
    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", no_factorize)
    code, out, err = run_cli(capsys, command, "--n", "1000000000000000003", "--r", "2")
    assert code == EXIT_REFUSED and out == ""
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["refused"] is True and "group_size" not in diag
    assert diag["estimated_ops"] == str(10**9) and diag["budget"] == str(cli.DEFAULT_BUDGET)


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
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "menon.cli", "verify", "--n", "2", "--r", "100000"],
        capture_output=True, text=True, env=env, timeout=20,
    )
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
