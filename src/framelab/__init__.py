"""Frames of subspaces: discretization, bounds, reconstruction, verification.

``import framelab`` loads no submodule. A submodule loads on first access
to it or to one of the names below (PEP 562), so a CLI subcommand pays
only for the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# every submodule, with the public names the package hands out from it
_EXPORTS = {
    "cli": (),
    "errors": (
        "AtomMismatchError", "CoefficientError", "DimensionMismatchError", "FrameLabError",
        "NotAFrameError", "NotPositiveDefiniteError", "NotSelfAdjointError",
    ),
    "fusion": (
        "Coefficients", "Reconstruction", "WeightedSubspaceFamily", "analysis",
        "apply_frame_operator", "frame_bounds", "frame_operator", "frame_sum", "reconstruct",
        "synthesis", "synthesis_matrix", "verify_characterization",
    ),
    "hilbert": ("SpectralBounds", "Subspace", "column_space", "orthonormal_basis"),
    "instances": (),
    "measure": (
        "AtomicMeasure", "DiscretizationScheme", "ParameterSpace", "WeightFunction",
        "discretize", "quadrature", "sample_weights", "weight_from_spec",
    ),
    "perturbation": (
        "PerturbationParams", "check_perturbation", "perturbation_reports", "predicted_interval",
        "verify_composite_perturbation", "verify_perturbed_resolution", "verify_perturbed_sum",
    ),
    "reports": ("VerificationReport",),
    "resolution": (
        "OperatorFamily", "SumMode", "gram_sum", "normalize_to_identity",
        "resolution_bounds", "resolution_gram", "verify_resolution",
    ),
    "serialize": (),
    "theorems": (
        "SupportReconstruction", "reconstruct_by_support", "verify_frame_from_projection_identity",
        "verify_induced_fusion_frame", "verify_induced_vector_frame",
        "verify_operator_family_sandwich", "verify_orthogonal_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached: the answer always follows the submodule's current attribute
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
