"""Endpoint-corrected Simpson quadrature with sharp error bounds.

The corrected three-point rule

    (b-a)/30 * [7 f(a) + 16 f(m) + 7 f(b)] - (b-a)^2/60 * [f'(b) - f'(a)]

is exact for polynomials of degree 5 and converges like h^6 in composite
form, at the price of just two endpoint-derivative evaluations.  The
package bundles the rule family, its Peano-kernel error machinery, a
range estimator, an expression parser with Taylor-mode differentiation,
a reference oracle, and a CLI.

``import msquad`` loads none of these modules: each public name, and each
module by its own name (``msquad.jets``), is imported on first use
(PEP 562), so a one-shot CLI run pays only for what its subcommand calls.
"""

import importlib

__version__ = "0.1.0"

# Each module's public names, stated once.
_EXPORTS = {
    "bounds": (
        "BoundReport", "DerivativeRange", "SecantSlope", "composite_bound_k6",
        "composite_bounds", "estimate_derivative_range", "midpoint_bounds",
        "secant_slope", "simpson_classic_bound",
    ),
    "errors": (
        "DerivativeUnavailableError", "EvaluationError", "InvalidRangeError",
        "MsquadError", "ParseError", "ReferenceConvergenceError",
        "SlopeInconsistencyError",
    ),
    "expressions": ("Expression", "evaluate", "parse"),
    "integrand": ("Integrand", "Interval", "UniformGrid"),
    "jets": ("TaylorJet", "derivatives", "expression_integrand"),
    "kernels": ("KernelConstants", "kernel_eval", "scaled_constants"),
    "reference": (
        "ConvergenceRow", "ConvergenceTable", "ReferenceResult", "RuleComparison",
        "compare_rules", "convergence_study", "reference_integral",
    ),
    "rules": (
        "QuadResult", "Rule", "composite_modified_simpson", "composite_simpson",
        "corrected_midpoint_panel", "leading_error_estimate", "midpoint_panel",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here as well
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
