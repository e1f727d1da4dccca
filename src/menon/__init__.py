"""Computational verification of Menon-type gcd-sum identities through
Burnside orbit counting over upper-triangular matrix groups mod n."""

from .arith import (
    dirichlet_convolve,
    divisors,
    euler_phi,
    factorize,
    tau,
    tau2_explicit,
    tau_r_closed,
    tau_r_recursive,
)
from .group_action import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DivisorChain,
    ResidueVector,
    UpperTriangularMatrix,
    apply,
    count_chains,
    divisor_chain,
    element_at,
    enumerate_group,
    fixed_points_direct,
    group_size,
    matmul,
    orbit_count_burnside,
    orbits_brute_force,
    units,
)
from .identity import compute_dk, fixed_point_count_formula

__version__ = "0.1.0"
