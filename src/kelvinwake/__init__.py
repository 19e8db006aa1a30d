"""kelvinwake: the Kelvin ship-wave source integral F(x, rho, alpha).

Evaluation of

    F(x, rho, alpha) = int_{-inf}^{inf} exp[-rho/2 cosh(2u - i alpha)]
                       cos(x cosh u) du

for small x and rho with M = x^2/(4 rho) large, by four routes: a
brute-force quadrature oracle, the convergent Bessel product series, the
truncated I-Y series with saddle estimate, and the three-part large-M
expansion (Struve sum + asymptotic series + saddle term), together with
machine-verified remainder and tail bounds.

The names below are the README's quick start and the errors a caller
catches; everything else is imported from its submodule
(kelvinwake.expansions, kelvinwake.oracle, kelvinwake.specfun,
kelvinwake.bounds, ...), as the command line and the tests do.
"""

from .errors import AccuracyError, DomainError, KelvinWakeError, RegimeError
from .expansions import TruncationPolicy, bessho_F, paris_F
from .oracle import EvalPoint, oracle_F

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "DomainError",
    "EvalPoint",
    "KelvinWakeError",
    "RegimeError",
    "TruncationPolicy",
    "bessho_F",
    "oracle_F",
    "paris_F",
]
