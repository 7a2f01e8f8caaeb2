import pytest

import msquad

# The public names the lazy table must list, exactly.
PUBLIC_NAMES = [
    "BoundReport", "ConvergenceRow", "ConvergenceTable", "DerivativeRange",
    "DerivativeUnavailableError", "EvaluationError", "Expression", "Integrand",
    "Interval", "InvalidRangeError", "KernelConstants", "MsquadError", "ParseError",
    "QuadResult", "ReferenceConvergenceError", "ReferenceResult", "Rule",
    "RuleComparison", "SecantSlope", "SlopeInconsistencyError", "TaylorJet",
    "UniformGrid", "compare_rules", "composite_bound_k6", "composite_bounds",
    "composite_modified_simpson", "composite_simpson", "convergence_study",
    "corrected_midpoint_panel", "derivatives", "estimate_derivative_range", "evaluate",
    "expression_integrand", "kernel_eval", "leading_error_estimate",
    "midpoint_bounds", "midpoint_panel", "parse", "reference_integral",
    "scaled_constants", "secant_slope", "simpson_classic_bound",
]

# Entry points that nothing in the package called.  Most have a kept
# equivalent (composite_bounds, composite_bound_k6, scaled_constants, and the
# one-pair composite_simpson and composite_modified_simpson); the exact kernel
# table and the printer only served tests, which now derive the kernels from
# the rule and print trees themselves (tests/helpers.py).
DELETED_NAMES = {
    "bounds": ("panel_bound_k6", "panel_bounds", "unit_bounds"),
    "expressions": ("to_string",),
    "kernels": ("PeanoKernel", "kernel", "kernel_abs_integral", "kernel_eval_scaled",
                "kernel_max_abs", "kernel_moment"),
    "rules": ("modified_simpson_panel", "simpson_panel"),
}


def test_all_exports_resolve():
    missing = [name for name in msquad.__all__ if not hasattr(msquad, name)]
    assert missing == []


def test_public_names_are_unchanged():
    assert msquad.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from msquad import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'msquad' has no attribute 'no_such_name'"):
        msquad.no_such_name


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in DELETED_NAMES.items() for n in names])
def test_deleted_names_are_attribute_errors(module, name):
    with pytest.raises(AttributeError):
        getattr(msquad, name)
    with pytest.raises(AttributeError):
        getattr(getattr(msquad, module), name)


def test_dir_lists_every_public_name():
    assert set(msquad.__all__) <= set(dir(msquad))
