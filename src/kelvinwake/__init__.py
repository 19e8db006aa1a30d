"""kelvinwake: the Kelvin ship-wave source integral F(x, rho, alpha).

Evaluation of

    F(x, rho, alpha) = int_{-inf}^{inf} exp[-rho/2 cosh(2u - i alpha)]
                       cos(x cosh u) du

for small x and rho with M = x^2/(4 rho) large, by four routes: a
brute-force quadrature oracle, the convergent Bessel product series, the
truncated I-Y series with saddle estimate, and the three-part large-M
expansion (Struve sum + asymptotic series + saddle term), together with
machine-verified remainder and tail bounds.

The names below are the ones the command line, the README and the
acceptance suite use; everything else stays importable from its submodule
(kelvinwake.expansions, kelvinwake.oracle, kelvinwake.specfun, ...).
"""

from .bounds import remainder_bound, verify_inc_gamma_bound, verify_remainder
from .errors import AccuracyError, DomainError, KelvinWakeError, RegimeError
from .expansions import (
    TruncationPolicy,
    asymptotic_sum,
    bessho_F,
    ck_recurrence,
    ck_symbolic_coefficients,
    ck_table,
    curly_F_residual,
    paris_F,
    struve_double_sum,
    ursell_F,
)
from .oracle import (
    EvalPoint,
    QuadResult,
    oracle_Ck,
    oracle_F,
    oracle_I1_alpha,
    oracle_I2,
    oracle_moment_identity,
)
from .specfun import bessel_i, bessel_j, bessel_k, bessel_y, kummer_1f1
from .table1 import KNOWN_REFERENCE_DEFECTS, TABLE1_ROWS

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "DomainError",
    "EvalPoint",
    "KNOWN_REFERENCE_DEFECTS",
    "KelvinWakeError",
    "QuadResult",
    "RegimeError",
    "TABLE1_ROWS",
    "TruncationPolicy",
    "asymptotic_sum",
    "bessel_i",
    "bessel_j",
    "bessel_k",
    "bessel_y",
    "bessho_F",
    "ck_recurrence",
    "ck_symbolic_coefficients",
    "ck_table",
    "curly_F_residual",
    "kummer_1f1",
    "oracle_Ck",
    "oracle_F",
    "oracle_I1_alpha",
    "oracle_I2",
    "oracle_moment_identity",
    "paris_F",
    "remainder_bound",
    "struve_double_sum",
    "ursell_F",
    "verify_inc_gamma_bound",
    "verify_remainder",
]
