"""Numerical checks linking operator resolutions and frames of subspaces.

Each verifier checks the hypotheses of one structural claim on a concrete
finite instance, computes the relevant constants spectrally, and certifies
the conclusion within stated tolerances. Hypothesis failures produce a
report with the conclusion left unchecked; no exception is raised for a
failed check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusion, hilbert, resolution
from .fusion import WeightedSubspaceFamily
from .hilbert import adjoint, as_vector
from .reports import VerificationReport
from .resolution import SUPPORT_TOL, OperatorFamily, SumMode

# Largest ||U_i* U_j|| of two orthogonal subspaces.
ORTHOGONALITY_TOL = 1e-10

# Largest ||T_i P_i - T_i|| and ||P_i T_i - T_i|| over max(1, ||T_i||) of T_i in W_i.
SANDWICH_TOL = 1e-10

# Largest relative residual of support reconstruction, and gap of its two orderings.
RECONSTRUCTION_TOL = 1e-8
ORDERING_TOL = 1e-9


@hilbert.per_family
def first_power_residual(family: WeightedSubspaceFamily) -> float:
    """Largest column norm of id - sum_i omega_i mu_i P_i."""
    d = family.ambient_dim
    first_power = family.projector_sum(family.weights * family.masses)
    return float(np.linalg.norm(np.eye(d) - first_power, axis=0).max())


def _identity_limit(family: WeightedSubspaceFamily, coef, tol: float) -> float:
    """tol plus the rounding allowance of a column norm of id - sum_i coef_i P_i.

    ``projector_sum`` forms S = sum_i coef_i P_i, coef_i > 0, as
    (U * coef[atom]) U* over the N = sum(ranks) columns u_m of the stacked
    basis. Each entry of S is one rounded coefficient, one scaled product, a
    dot product of length N and a hermitian average, so its error is at most
    gamma_{N+3} ~ (N + 3) eps times the entry of M = |U| C |U|*, where
    C = diag(coef[atom]) (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1; complex products add at most 2 eps more each).
    As M = (|U| C^1/2)(|U| C^1/2)*, every column of M has norm at most
    ||M||_2 <= || |U| C^1/2 ||_F^2 = sum_m coef_m ||u_m||^2 = t, with
    ||u_m||^2 <= 1 + ORTHONORMAL_TOL. Subtracting from id and taking the
    column norm add (d + 2) eps relative to the residual, which is itself of
    rounding size where the identity holds, so those terms are of second
    order. An identity that holds exactly therefore computes a residual
    below (N + 5) eps t to first order; the allowance is 4 (N + d) eps t.
    """
    n = family.basis.shape[1]
    t = float(np.asarray(coef, dtype=float)[family.column_atom].sum())
    return tol + 4.0 * (n + family.ambient_dim) * np.finfo(float).eps * t


def first_power_limit(family: WeightedSubspaceFamily, tol: float) -> float:
    """The largest first_power_residual at which the first-power identity holds within tol."""
    return _identity_limit(family, family.weights * family.masses, tol)


@hilbert.per_family
def _unweighted_upper(family: WeightedSubspaceFamily) -> float:
    """Top eigenvalue of the unweighted Gram sum sum_i mu_i P_i."""
    return float(hilbert.self_adjoint_spectrum(family.projector_sum(family.masses))[-1])


def _converse_bound(family: WeightedSubspaceFamily, tol: float):
    """(C, A >= C) for C = 1/lambda_max(sum_i mu_i P_i), inf where lambda_max <= 0.

    A and C each come from a d x d eigensolve, so A >= C is decided within
    ``tol`` plus hilbert.rounding_allowance(d) max(B, C).
    """
    top = _unweighted_upper(family)
    c_const = 1.0 / top if top > 0 else float("inf")
    bounds = fusion.frame_bounds(family)
    allowance = hilbert.rounding_allowance(family.ambient_dim) * max(bounds.upper, c_const)
    return c_const, bounds.lower >= c_const - tol - allowance


@hilbert.per_family
def orthogonality_defect(family: WeightedSubspaceFamily) -> float:
    """Largest ||U_i* U_j|| over pairs of atoms i < j.

    U* U is formed one atom-row slab at a time from zero-padded bases (the
    padding leaves the norms unchanged), so no sum(ranks)^2 matrix is built.
    """
    pad, ranks = fusion._padded(family.basis, family.column_atom, family.natoms), family.ranks
    worst = 0.0
    for i in range(family.natoms - 1):
        if ranks[i]:
            slab = adjoint(pad[i, :, : ranks[i]]) @ pad[i + 1 :]
            worst = max(worst, float(hilbert.operator_norms(slab).max()))
    return worst


def verify_induced_fusion_frame(family: OperatorFamily, tol: float = 1e-9):
    """Closed ranges of a weighted-mode resolution form a frame of subspaces.

    Hypotheses: the family sums to the identity with weighted coefficients
    and its Gram form is positive. The conclusion bounds the induced frame:
    A >= 1/D and B <= D (1 + sqrt(R/D))^2 where D is the Gram upper bound
    and R the deviation bound between each operator and the projector onto
    its range.

    Returns (report, induced_family).
    """
    if family.sum_mode is not SumMode.WEIGHTED:
        raise ValueError("induced-frame check expects a weighted-mode family")
    report = VerificationReport(check_id="induced_fusion_frame")
    report.tolerances = {"identity_residual": tol, "bound_slack": tol}

    resolution.add_identity_sum_hypothesis(report, "weighted_identity_sum", family, tol)
    rbounds = resolution.resolution_bounds(family)
    report.add_hypothesis(
        "gram_bounds_positive",
        rbounds.is_positive(),
        residual=rbounds.lower,
        detail=f"gram_upper={rbounds.upper:.6e}",
    )

    induced = WeightedSubspaceFamily(
        subspaces=hilbert.range_bases(family.operators),
        weights=family.weights,
        masses=family.masses,
        points=family.points,
    )

    bounds = fusion.frame_bounds(induced)

    # deviation between each operator and the projector onto its range
    deviation = induced.projectors() - family.operators
    dev = hilbert.stacked_gram(deviation, family.gram_coefficients())
    r_const = max(float(hilbert.self_adjoint_spectrum(dev)[-1]), 0.0)
    d_const = rbounds.upper
    predicted_upper = d_const * (1.0 + np.sqrt(r_const / d_const)) ** 2 if d_const > 0 else 0.0
    predicted_lower = 1.0 / d_const if d_const > 0 else float("inf")

    report.constants = {
        "gram_lower": rbounds.lower,
        "gram_upper": d_const,
        "deviation_bound": r_const,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "predicted_lower": predicted_lower,
        "predicted_upper": predicted_upper,
    }
    ok = (
        bounds.lower >= predicted_lower - tol
        and bounds.lower > 0.0
        and bounds.upper <= predicted_upper + tol
    )
    report.conclude(ok)
    return report, induced


def verify_operator_family_sandwich(
    family: WeightedSubspaceFamily, operators: OperatorFamily, tol: float = 1e-9
) -> VerificationReport:
    """Operators confined to Bessel subspaces inherit two-sided Gram bounds.

    Hypotheses: atoms aligned; each T_i annihilates the complement of W_i
    and maps into W_i; the weighted sums reproduce the identity. With D the
    Bessel bound of the subspace family and E the largest operator norm,
    the Gram bounds of the operator family satisfy

        1/D <= gram_lower  and  gram_upper <= D E^2.

    The linear-form upper bound D*E is recorded for comparison and flagged
    when it fails; it is only valid when E <= 1.
    """
    report = VerificationReport(check_id="operator_family_sandwich")
    report.tolerances = {"bound_slack": tol, "sandwich_residual": SANDWICH_TOL}
    resolution.require_aligned(family, operators, SumMode.WEIGHTED)

    ops = operators.operators
    p = family.projectors()
    norms = operators.operator_norms()
    scale = np.maximum(1.0, norms)
    kernel_res = float((hilbert.operator_norms(ops @ p - ops) / scale).max())
    range_res = float((hilbert.operator_norms(p @ ops - ops) / scale).max())
    report.add_hypothesis(
        "kernel_contains_complement", kernel_res <= SANDWICH_TOL, residual=kernel_res
    )
    report.add_hypothesis(
        "range_in_subspace", range_res <= SANDWICH_TOL, residual=range_res
    )
    resolution.add_identity_sum_hypothesis(report, "weighted_identity_sum", operators, tol)

    bessel = fusion.frame_bounds(family).upper
    report.add_hypothesis(
        "subspace_family_bessel", bessel > 0.0, residual=bessel
    )

    rbounds = resolution.resolution_bounds(operators)
    e_const = float(norms.max())
    upper_quadratic = bessel * e_const**2
    upper_linear = bessel * e_const
    report.constants = {
        "bessel": bessel,
        "sup_norm": e_const,
        "gram_lower": rbounds.lower,
        "gram_upper": rbounds.upper,
        "predicted_lower": 1.0 / bessel if bessel > 0 else float("inf"),
        "predicted_upper": upper_quadratic,
        "upper_linear_form": upper_linear,
    }
    linear_holds = rbounds.upper <= upper_linear + tol
    report.constants["upper_linear_form_holds"] = float(linear_holds)
    if not linear_holds:
        report.notes.append(
            "linear-form upper bound D*E fails on this instance; it requires "
            "operator norms at most 1, the quadratic form D*E^2 is the valid one"
        )
    ok = (
        rbounds.lower >= report.constants["predicted_lower"] - tol
        and rbounds.upper <= upper_quadratic + tol
    )
    report.conclude(ok)
    return report


def verify_frame_from_projection_identity(
    family: WeightedSubspaceFamily, tol: float = 1e-9, rng=None
) -> VerificationReport:
    """A first-power reconstruction identity forces a positive frame bound.

    Hypotheses: sum_i omega_i mu_i P_i f = f, and the unweighted Gram
    sum mu_i P_i is bounded (its top eigenvalue defines C = 1/lambda_max).
    Conclusion: the weighted frame sum admits the lower bound C, decided
    on the spectrum by _converse_bound. No quadratic form of the frame
    operator is below A, so nothing is probed: ``rng`` is accepted, unused.
    """
    report = VerificationReport(check_id="projection_identity_frame")
    report.tolerances = {"identity_residual": tol, "bound_slack": tol}
    identity_res = first_power_residual(family)
    report.add_hypothesis(
        "first_power_identity_sum",
        identity_res <= first_power_limit(family, tol),
        residual=identity_res,
    )
    unweighted_top = _unweighted_upper(family)
    report.add_hypothesis(
        "unweighted_gram_bounded", unweighted_top > 0.0, residual=unweighted_top
    )
    c_const, holds = _converse_bound(family, tol)
    bounds = fusion.frame_bounds(family)
    report.constants = {
        "unweighted_upper": unweighted_top,
        "predicted_lower": c_const,
        "lower": bounds.lower,
        "upper": bounds.upper,
    }
    report.conclude(holds)
    return report


def verify_orthogonal_decomposition(
    family: WeightedSubspaceFamily, tol: float = 1e-9
) -> VerificationReport:
    """Pairwise orthogonal subspaces of a frame reproduce every vector.

    Hypotheses: the subspaces are pairwise orthogonal and the family is a
    frame. Conclusion: the unweighted projections sum to the identity.
    When the first-power identity also holds, the converse bound of the
    projection-identity check, A >= C = 1/lambda_max(sum_i mu_i P_i), is
    decided by the same _converse_bound and its outcome recorded.
    """
    report = VerificationReport(check_id="orthogonal_decomposition")
    report.tolerances = {"decomposition_residual": tol, "orthogonality": ORTHOGONALITY_TOL}
    cross = orthogonality_defect(family)
    report.add_hypothesis(
        "pairwise_orthogonal", cross <= ORTHOGONALITY_TOL, residual=cross
    )
    bounds = fusion.frame_bounds(family)
    report.add_hypothesis(
        "frame_lower_bound_positive",
        bounds.is_positive(),
        residual=bounds.lower,
        detail=f"upper={bounds.upper:.6e}",
    )
    d = family.ambient_dim
    proj_sum = family.projector_sum(np.ones(family.natoms))
    decomposition_res = float(np.linalg.norm(np.eye(d) - proj_sum, axis=0).max())
    report.constants = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "cross_norm": cross,
        "decomposition_residual": decomposition_res,
    }
    report.conclude(decomposition_res <= _identity_limit(family, np.ones(family.natoms), tol))

    # converse direction, available when the first-power identity holds
    if first_power_residual(family) <= first_power_limit(family, tol):
        c_const, holds = _converse_bound(family, tol)
        report.constants["converse_predicted_lower"] = c_const
        report.notes.append(
            "converse checked via projection-identity frame bound: "
            + ("holds" if holds else "fails")
        )
    else:
        report.notes.append(
            "converse not applicable: first-power identity sum does not hold"
        )
    return report


def verify_induced_vector_frame(
    family: OperatorFamily,
    frame_seq,
    tol: float = 1e-9,
) -> VerificationReport:
    """Adjoint images of a vector frame form a frame for its span.

    Given a raw-mode resolution with Gram bounds [C, D] and vectors {f_i}
    spanning V with frame-sequence bounds [As, Bs], the doubly indexed
    family omega_j sqrt(mu_j) T_j^* f_i has frame bounds on V contained in
    [As C, Bs D].
    """
    report = VerificationReport(check_id="induced_vector_frame")
    report.tolerances = {"bound_slack": tol}
    if family.sum_mode is not SumMode.RAW:
        raise ValueError("induced vector frame check expects a raw-mode family")
    vectors = [as_vector(f, family.ambient_dim) for f in frame_seq]
    if not vectors:
        raise ValueError("frame_seq must be nonempty")

    gram_bounds, residual, passed = resolution.resolution_facts(family, tol)
    report.add_hypothesis("base_resolution", passed, residual=residual)
    seq = np.stack(vectors, axis=1)
    span = hilbert.column_space(seq)
    report.add_hypothesis("span_nontrivial", span.rank >= 1, residual=float(span.rank))

    c_const, d_const = gram_bounds.lower, gram_bounds.upper

    q = span.basis
    # sum_i omega_i^2 mu_i T_i* (F F*) T_i with F the sequence as columns
    induced = hilbert.stacked_gram(adjoint(seq) @ family.operators, family.gram_coefficients())
    # the sequence's and the induced family's bounds on the span, those of q* a q
    seq_bounds, bounds = (
        hilbert.spectral_bounds(adjoint(q) @ a @ q) if span.rank else hilbert.SpectralBounds(0.0, 0.0)
        for a in (seq @ adjoint(seq), induced)
    )

    predicted_lower = seq_bounds.lower * c_const
    predicted_upper = seq_bounds.upper * d_const
    report.constants = {
        "gram_lower": c_const,
        "gram_upper": d_const,
        "seq_lower": seq_bounds.lower,
        "seq_upper": seq_bounds.upper,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "predicted_lower": predicted_lower,
        "predicted_upper": predicted_upper,
        "span_dim": float(span.rank),
    }
    ok = bounds.lower >= predicted_lower - tol and bounds.upper <= predicted_upper + tol
    report.conclude(ok)
    return report


@dataclass(frozen=True)
class SupportReconstruction:
    inverse_first: np.ndarray | None
    inverse_last: np.ndarray | None
    report: VerificationReport


def reconstruct_by_support(family: OperatorFamily, f) -> SupportReconstruction:
    """Reconstruct f from the atoms supporting its coordinate span.

    The span of the canonical basis vectors carrying f is located, the
    atoms acting on that span are collected, and the restricted Gram
    operator is inverted on the span. Both orderings of the inverse are
    returned: applying it after the Gram sums (inverse first in the formula)
    and before them. Out-of-span leakage of the uncompressed sums is
    recorded as a diagnostic.
    """
    report = VerificationReport(check_id="support_reconstruction")
    report.tolerances = {"residual": RECONSTRUCTION_TOL, "ordering_gap": ORDERING_TOL}
    if family.sum_mode is not SumMode.RAW:
        raise ValueError("support reconstruction expects a raw-mode family")
    d = family.ambient_dim
    f = as_vector(f, d)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        zero = np.zeros(d)
        report.add_hypothesis("span_gram_positive", True, detail="zero vector")
        report.constants = {
            "span_dim": 0.0,
            "support_size": 0.0,
            "residual_inverse_first": 0.0,
            "residual_inverse_last": 0.0,
            "ordering_gap": 0.0,
            "span_leakage": 0.0,
        }
        report.conclude(True)
        return SupportReconstruction(zero, zero, report)

    coords = np.flatnonzero(np.abs(f) > SUPPORT_TOL * fnorm)
    q = np.eye(d)[:, coords]
    # atoms acting on the span: T_i e_j is nonzero for some carried coordinate j
    acting = (np.linalg.norm(family.operators[:, :, coords], axis=1) > SUPPORT_TOL).any(axis=1)
    support_size = int(np.count_nonzero(acting))

    gram = hilbert.stacked_gram(
        family.operators[acting], family.gram_coefficients()[acting]
    )
    gram_on_span = adjoint(q) @ gram @ q
    eigh = hilbert.self_adjoint_eigh(gram_on_span)
    bounds = hilbert.SpectralBounds.of_spectrum(eigh[0])
    report.add_hypothesis(
        "span_gram_positive", bounds.is_positive(), residual=bounds.lower,
        detail=f"span_dim={len(coords)}, support_size={support_size}",
    )
    if not bounds.is_positive():
        report.constants = {
            "span_dim": float(len(coords)),
            "support_size": float(support_size),
            "span_gram_lower": bounds.lower,
        }
        report.conclude(False)
        return SupportReconstruction(None, None, report)

    y = gram @ f  # equals the full-family sum since excluded atoms kill span(f)
    inverse_first = q @ hilbert.solve_positive_eigh(gram_on_span, eigh, adjoint(q) @ y)
    u = q @ hilbert.solve_positive_eigh(gram_on_span, eigh, adjoint(q) @ f)
    y2 = gram @ u
    inverse_last = q @ (adjoint(q) @ y2)

    leakage = max(
        float(np.linalg.norm(y - q @ (adjoint(q) @ y))),
        float(np.linalg.norm(y2 - q @ (adjoint(q) @ y2))),
    )
    res_first = float(np.linalg.norm(inverse_first - f)) / fnorm
    res_last = float(np.linalg.norm(inverse_last - f)) / fnorm
    gap = float(np.linalg.norm(inverse_first - inverse_last)) / fnorm
    report.constants = {
        "span_dim": float(len(coords)),
        "support_size": float(support_size),
        "span_gram_lower": bounds.lower,
        "residual_inverse_first": res_first,
        "residual_inverse_last": res_last,
        "ordering_gap": gap,
        "span_leakage": leakage,
    }
    report.conclude(
        res_first <= RECONSTRUCTION_TOL and res_last <= RECONSTRUCTION_TOL and gap <= ORDERING_TOL
    )
    return SupportReconstruction(inverse_first, inverse_last, report)
