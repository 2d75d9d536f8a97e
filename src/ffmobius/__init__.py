"""Exact experiments on Mobius correlations over F_q[t].

Subpackages by responsibility: fields/polys/sieve for F_q and F_q[t]
arithmetic, laurent for F_q((1/t)) and rational approximation, hayes for
congruence-class characters and L-polynomials, quadform for quadratic
phases and Hankel matrices, correlations for the headline exponential sums
and the Vaughan decomposition, cli for the command-line harness.
"""

__version__ = "0.1.0"

from .fields import FieldCtx, get_field, parse_field
from .polys import (
    Poly,
    Factorization,
    poly_gcd,
    factorize,
    mobius,
    mangoldt,
    tau,
    divisors,
    enumerate_polys,
    irreducibles_of_degree,
    pnt_check,
    divisor_second_moment,
    max_tau_report,
)
from .laurent import LaurentSeries, RationalApprox, dirichlet_approx, from_rational, sample_torus
from .hayes import (
    HayesClass,
    HayesGroup,
    HayesCharacter,
    LPolynomial,
    build_group,
    class_of,
    euler_phi,
    l_polynomial,
    rh_check,
    euler_inverse_check,
    principal_check,
    log_deriv_check,
    char_sum_exponent_report,
)
from .quadform import (
    QuadPhase,
    RankStats,
    rank,
    hankel_matrix,
    dilation_matrix,
    m_ab,
    rank_stats,
    matrix_to_csv,
    matrix_from_csv,
)
from .correlations import (
    LinearPhase,
    QuadraticPhase,
    HankelPhase,
    CorrelationReport,
    VaughanReport,
    linear_corr,
    quad_corr,
    hankel_corr,
    gauss_mean,
    isotropic_count,
    periodic_corr,
    periodic_route_check,
    vaughan_pointwise_audit,
    vaughan_decompose,
    type_one_mean_square,
    exponent_sweep,
)
from .errors import BudgetExceeded, PrecisionExceeded, CharacteristicError, IdentityCheckError

__all__ = [
    "__version__",
    "FieldCtx", "get_field", "parse_field",
    "Poly", "Factorization", "poly_gcd", "factorize",
    "mobius", "mangoldt", "tau", "divisors",
    "enumerate_polys", "irreducibles_of_degree",
    "pnt_check", "divisor_second_moment", "max_tau_report",
    "LaurentSeries", "RationalApprox", "dirichlet_approx", "from_rational", "sample_torus",
    "HayesClass", "HayesGroup", "HayesCharacter", "LPolynomial",
    "build_group", "class_of", "euler_phi", "l_polynomial",
    "rh_check", "euler_inverse_check", "principal_check", "log_deriv_check",
    "char_sum_exponent_report",
    "QuadPhase", "RankStats", "rank", "gauss_mean", "isotropic_count",
    "hankel_matrix", "dilation_matrix", "m_ab", "rank_stats",
    "matrix_to_csv", "matrix_from_csv",
    "LinearPhase", "QuadraticPhase", "HankelPhase",
    "CorrelationReport", "VaughanReport",
    "linear_corr", "quad_corr", "hankel_corr",
    "periodic_corr", "periodic_route_check",
    "vaughan_pointwise_audit", "vaughan_decompose", "type_one_mean_square",
    "exponent_sweep",
    "BudgetExceeded", "PrecisionExceeded", "CharacteristicError", "IdentityCheckError",
]
