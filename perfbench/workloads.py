"""The benchmark's workloads: fixed sets of `menon` CLI invocations.

Every invocation starts at n = 1, so its first record is the trivial
modulus and the time to that record is the invocation's set-up time.
`digest` is the sha256 of the stdout bytes of all invocations of one pass,
concatenated in the order listed here; the CLI's records are byte
deterministic, so it is the same on every pass, seed and machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `menon <command> --n 1..n_max --r r [--shards s]` call."""

    command: str
    n_max: int
    r: int
    shards: int = 1

    def args(self, n_max: int | None = None) -> list[str]:
        """CLI arguments; `n_max` overrides the top of the modulus range."""
        top = self.n_max if n_max is None else n_max
        args = [self.command, "--n", f"1..{top}", "--r", str(self.r)]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        return args

    def label(self) -> str:
        return " ".join(self.args())


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    digest: str


WORKLOADS = {
    w.name: w
    for w in (
        # A few large groups: k >= 3 elimination is ~98% of the time.
        Workload(
            "sweep-r3",
            (Invocation("verify", 10, 3),),
            "53568384d3b6ac9af5a03a3559b62bd227dff436e5fdbe815928c9d19656a11e",
        ),
        # Thousands of tiny groups: units(n), enumeration, one pool per n and
        # record serialization carry the time, and memory grows with n_max.
        Workload(
            "sweep-wide",
            (Invocation("verify", 4000, 1), Invocation("verify", 60, 2, shards=2)),
            "b7b4e7615af22cecf970c69394c5ae3223bd61b4928559d4806fc5ce49782b8c",
        ),
        # The orbit and arithmetic side: union-find over every (g, x) pair,
        # the divisor-chain recursion and tau_r; the Burnside sweep is small.
        Workload(
            "orbit-census",
            (
                Invocation("burnside", 16, 2),
                Invocation("burnside", 5, 3),
                Invocation("burnside", 3, 4),
                Invocation("chains", 1500, 5),
                Invocation("tau", 10000, 6),
            ),
            "7d2b9ea9cb46abb76a71f077387301ff9cdee8fabfc0428f07b99a17cbe6bf5c",
        ),
    )
}
