"""Exact counting and verification for rational points of bounded height on
the quartic hypersurface x^4 = (y1^2 + y2^2 + y3^2 + y4^2) z^2."""

from .arith import (
    build_spf_sieve,
    primes_up_to,
    q_tables,
    square_divisor_blocks,
)
from .asymptotics import (
    NSTAR_VARIANTS,
    RESIDUE_JACOBIAN,
    ResiduePolynomial,
    convergence_table,
    euler_product_C4,
    n_star_main_term,
    n_u_main_term,
    p_coefficients,
    prime_zeta,
    s_main_term,
    t_main_term,
)
from .counting import (
    CountRecord,
    PartitionWitness,
    TelescopeReport,
    brute_force_primitive,
    brute_force_primitive_curve,
    brute_force_star,
    n_star,
    n_star_by_divisors,
    n_u,
    partition_witness,
    s_exact,
    t_exact,
    telescoping_check,
)
from .dirichlet import (
    ZetaValue,
    formal_identity_1,
    formal_identity_2,
    g_value,
    global_series_check,
    local_factor_closed_form,
    local_factor_definition,
    zeta,
)
from .errors import DomainError, ResourceError
from .series import RationalFunction, TruncSeries

__version__ = "0.1.0"
