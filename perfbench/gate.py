"""Correctness gate: every record the CLI prints is checked against values
the bench computes itself from `menon.arith.tau_r_closed` and
`menon.group_action.group_size`.

- verify: lhs == rhs == |G(n, r)| * tau_r(n), and matched is true;
- burnside: all four orbit counts equal tau_r(n), and agree is true;
- chains: chain_count == tau_r == tau_r(n), and agree is true;
- tau: the bare value equals tau_r(n).

A record that is absent, wrong, refused by the budget or duplicated, an
invocation that exits nonzero and a pass whose stdout digest differs from
the workload's all count as failures.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

from workloads import Invocation


class Oracle:
    """|G(n, r)| and tau_r(n) from the package's closed forms, memoised."""

    def __init__(self, group_size, tau_r_closed) -> None:
        self._group_size = group_size
        self._tau_r = tau_r_closed
        self._memo: dict[tuple[int, int], tuple[int, int]] = {}

    def __call__(self, n: int, r: int) -> tuple[int, int]:
        key = (n, r)
        if key not in self._memo:
            self._memo[key] = (self._group_size(n, r), self._tau_r(n, r))
        return self._memo[key]

    def elements(self, inv: Invocation) -> int:
        """Sum of |G(n, r)| over the records of a verify or burnside call."""
        if inv.command not in ("verify", "burnside"):
            return 0
        return sum(self(n, inv.r)[0] for n in range(1, inv.n_max + 1))


def _record_ok(inv: Invocation, n: int, rec, oracle: Oracle) -> bool:
    size, t_r = oracle(n, inv.r)
    if inv.command == "tau":
        return rec == str(t_r)
    if not isinstance(rec, dict) or rec.get("r") != inv.r:
        return False
    if inv.command == "verify":
        want = str(size * t_r)
        return (
            rec.get("lhs") == rec.get("rhs") == want
            and rec.get("group_size") == str(size)
            and rec.get("matched") is True
        )
    counts = ("chain_count", "tau_r")
    if inv.command == "burnside":
        counts += ("burnside_count", "unionfind_count")
    return all(rec.get(k) == str(t_r) for k in counts) and rec.get("agree") is True


def _parse(inv: Invocation, stdout: bytes) -> tuple[dict[int, object], int]:
    """Records keyed by n, plus the number of lines that are not a record
    or repeat an n. tau prints bare values, one per n in order."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if inv.command == "tau":
        return {n: line for n, line in enumerate(lines, start=1)}, 0
    records: dict[int, object] = {}
    bad = 0
    for line in lines:
        try:
            rec = json.loads(line)
            n = int(rec["n"])
        except (ValueError, KeyError, TypeError):
            bad += 1
            continue
        if n in records:
            bad += 1
        else:
            records[n] = rec
    return records, bad


def _refused(stderr: bytes) -> set[int]:
    refused = set()
    for line in stderr.decode("utf-8", "replace").splitlines():
        try:
            diag = json.loads(line)
        except ValueError:
            continue
        if isinstance(diag, dict) and diag.get("refused") is True:
            refused.add(int(diag["n"]))
    return refused


def check_invocation(
    inv: Invocation, stdout: bytes, stderr: bytes, exit_code: int, oracle: Oracle,
    n_max: int | None = None,
) -> tuple[int, Counter]:
    """(records attempted, failures by kind) for one CLI run over 1..n_max."""
    top = inv.n_max if n_max is None else n_max
    records, bad = _parse(inv, stdout)
    refused = _refused(stderr)
    failures: Counter = Counter()
    for n in range(1, top + 1):
        if n not in records:
            failures["refused" if n in refused else "missing"] += 1
        elif not _record_ok(inv, n, records[n], oracle):
            failures["disagreeing" if inv.command in ("burnside", "chains") else "mismatched"] += 1
    extra = bad + sum(1 for n in records if not 1 <= n <= top)
    if extra:
        failures["extra"] += extra
    if exit_code != 0:
        failures["exit"] += 1
    return top, failures


def digest(stdouts: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in stdouts:
        h.update(out)
    return h.hexdigest()


@dataclass
class Verdict:
    """Running tally of the gate over a whole bench run."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    def add(self, attempted: int, failures: Counter) -> None:
        self.attempted += attempted
        self.failures.update(failures)

    def add_digest(self, expected: str, stdouts: list[bytes]) -> None:
        if digest(stdouts) != expected:
            self.failures["digest"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
