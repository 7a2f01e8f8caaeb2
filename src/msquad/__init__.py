"""Endpoint-corrected Simpson quadrature with sharp error bounds.

The corrected three-point rule

    (b-a)/30 * [7 f(a) + 16 f(m) + 7 f(b)] - (b-a)^2/60 * [f'(b) - f'(a)]

is exact for polynomials of degree 5 and converges like h^6 in composite
form, at the price of just two endpoint-derivative evaluations.  The
package bundles the rule family, its Peano-kernel error machinery, a
range estimator, an expression parser with Taylor-mode differentiation,
a reference oracle, and a CLI.
"""

from .bounds import (
    BoundReport,
    DerivativeRange,
    SecantSlope,
    composite_bound_k6,
    composite_bounds,
    estimate_derivative_range,
    midpoint_bounds,
    panel_bound_k6,
    panel_bounds,
    secant_slope,
    simpson_classic_bound,
    unit_bounds,
)
from .errors import (
    DerivativeUnavailableError,
    EvaluationError,
    InvalidRangeError,
    MsquadError,
    ParseError,
    ReferenceConvergenceError,
    SlopeInconsistencyError,
)
from .expressions import Expression, parse, to_string, evaluate
from .integrand import Integrand, Interval, UniformGrid
from .jets import TaylorJet, derivatives, expression_integrand
from .kernels import (
    KernelConstants,
    PeanoKernel,
    kernel,
    kernel_abs_integral,
    kernel_eval,
    kernel_eval_scaled,
    kernel_max_abs,
    kernel_moment,
    scaled_constants,
)
from .reference import (
    ConvergenceRow,
    ConvergenceTable,
    ReferenceResult,
    RuleComparison,
    compare_rules,
    convergence_study,
    reference_integral,
)
from .rules import (
    QuadResult,
    Rule,
    composite_modified_simpson,
    composite_simpson,
    corrected_midpoint_panel,
    leading_error_estimate,
    midpoint_panel,
    modified_simpson_panel,
    simpson_panel,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "DerivativeRange",
    "DerivativeUnavailableError",
    "EvaluationError",
    "Expression",
    "Integrand",
    "Interval",
    "InvalidRangeError",
    "KernelConstants",
    "MsquadError",
    "ParseError",
    "PeanoKernel",
    "QuadResult",
    "ReferenceConvergenceError",
    "ReferenceResult",
    "Rule",
    "RuleComparison",
    "SecantSlope",
    "SlopeInconsistencyError",
    "TaylorJet",
    "UniformGrid",
    "compare_rules",
    "composite_bound_k6",
    "composite_bounds",
    "composite_modified_simpson",
    "composite_simpson",
    "convergence_study",
    "corrected_midpoint_panel",
    "derivatives",
    "estimate_derivative_range",
    "evaluate",
    "expression_integrand",
    "kernel",
    "kernel_abs_integral",
    "kernel_eval",
    "kernel_eval_scaled",
    "kernel_max_abs",
    "kernel_moment",
    "leading_error_estimate",
    "midpoint_bounds",
    "midpoint_panel",
    "modified_simpson_panel",
    "panel_bound_k6",
    "panel_bounds",
    "parse",
    "reference_integral",
    "scaled_constants",
    "secant_slope",
    "simpson_classic_bound",
    "simpson_panel",
    "to_string",
    "unit_bounds",
]
