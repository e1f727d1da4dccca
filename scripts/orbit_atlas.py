#!/usr/bin/env python3
"""Print the orbit partition of Z_n^r next to each orbit's divisor chain,
plus the four orbit counts that must agree.

Example:
    python scripts/orbit_atlas.py --n 4 --r 2
"""

import argparse
import sys

from menon.arith import tau_r_recursive
from menon.group_action import (
    ResidueVector,
    count_chains,
    divisor_chain,
    orbit_count_burnside,
    orbits_brute_force,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--r", type=int, default=2)
    args = ap.parse_args()
    n, r = args.n, args.r

    blocks = orbits_brute_force(n, r)
    for block in blocks:
        chains = {divisor_chain(ResidueVector(n=n, r=r, coords=x)).values for x in block}
        if len(chains) != 1:
            raise RuntimeError(f"orbit {block} carries several chains: {chains}")
        chain = chains.pop()
        members = " ".join(str(x) for x in block)
        print(f"chain {chain}: {members}")

    print(
        f"\norbits={len(blocks)}  burnside={orbit_count_burnside(n, r)}  "
        f"chains={count_chains(n, r)}  tau_{r}({n})={tau_r_recursive(n, r)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
