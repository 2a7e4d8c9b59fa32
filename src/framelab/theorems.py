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
from .errors import AtomMismatchError
from .fusion import WeightedSubspaceFamily
from .hilbert import adjoint, as_vector
from .reports import VerificationReport
from .resolution import OperatorFamily, SumMode


def first_power_residual(family: WeightedSubspaceFamily) -> float:
    """Largest column norm of id - sum_i omega_i mu_i P_i."""
    d = family.ambient_dim
    first_power = family.projector_sum(family.weights * family.masses)
    return float(np.linalg.norm(np.eye(d) - first_power, axis=0).max())


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
            worst = max(worst, float(np.linalg.norm(slab, 2, axis=(1, 2)).max()))
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

    basis_res, probe_res, _ = resolution.identity_sum_residual(family)
    report.add_hypothesis(
        "weighted_identity_sum", max(basis_res, probe_res) <= tol, residual=basis_res
    )
    rbounds = resolution.resolution_bounds(family)
    report.add_hypothesis(
        "gram_bounds_positive",
        rbounds.is_resolution(),
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
    deviation = induced.projectors()
    deviation -= family.operators
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
    family: WeightedSubspaceFamily,
    operators: OperatorFamily,
    tol: float = 1e-9,
    sandwich_tol: float = 1e-10,
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
    report.tolerances = {"bound_slack": tol, "sandwich_residual": sandwich_tol}
    if family.natoms != operators.natoms:
        raise AtomMismatchError(
            f"{family.natoms} subspace atoms vs {operators.natoms} operator atoms"
        )
    if np.abs(family.weights - operators.weights).max() > 1e-12 or (
        np.abs(family.masses - operators.masses).max() > 1e-12
    ):
        raise AtomMismatchError("families must share weights and masses")
    if operators.sum_mode is not SumMode.WEIGHTED:
        raise ValueError("sandwich check expects a weighted-mode operator family")

    ops = operators.operators
    p = family.projectors()
    scale = np.maximum(1.0, operators.operator_norms())
    kernel_res = float((np.linalg.norm(ops @ p - ops, 2, axis=(1, 2)) / scale).max())
    range_res = float((np.linalg.norm(p @ ops - ops, 2, axis=(1, 2)) / scale).max())
    report.add_hypothesis(
        "kernel_contains_complement", kernel_res <= sandwich_tol, residual=kernel_res
    )
    report.add_hypothesis(
        "range_in_subspace", range_res <= sandwich_tol, residual=range_res
    )
    basis_res, probe_res, _ = resolution.identity_sum_residual(operators)
    report.add_hypothesis(
        "weighted_identity_sum", max(basis_res, probe_res) <= tol, residual=basis_res
    )

    bessel = fusion.frame_bounds(family).upper
    report.add_hypothesis(
        "subspace_family_bessel", bessel > 0.0, residual=bessel
    )

    rbounds = resolution.resolution_bounds(operators)
    e_const = operators.sup_norm()
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
    family: WeightedSubspaceFamily,
    tol: float = 1e-9,
    nprobes: int = 1000,
    rng=None,
) -> VerificationReport:
    """A first-power reconstruction identity forces a positive frame bound.

    Hypotheses: sum_i omega_i mu_i P_i f = f, and the unweighted Gram
    sum mu_i P_i is bounded (its top eigenvalue defines C = 1/lambda_max).
    Conclusion: the weighted frame sum admits the lower bound C, checked
    spectrally (A >= C) and on random probes.
    """
    report = VerificationReport(check_id="projection_identity_frame")
    report.tolerances = {"identity_residual": tol, "bound_slack": tol}
    identity_res = first_power_residual(family)
    report.add_hypothesis(
        "first_power_identity_sum", identity_res <= tol, residual=identity_res
    )
    unweighted_top = float(
        hilbert.self_adjoint_spectrum(family.projector_sum(family.masses))[-1]
    )
    report.add_hypothesis(
        "unweighted_gram_bounded", unweighted_top > 0.0, residual=unweighted_top
    )
    c_const = 1.0 / unweighted_top if unweighted_top > 0 else float("inf")
    bounds = fusion.frame_bounds(family)

    probes = hilbert.unit_probes(family.ambient_dim, nprobes, rng)
    sums = hilbert.quadratic_forms(fusion.frame_operator(family), probes)
    worst_margin = float(np.max(c_const - sums, initial=0.0))
    report.constants = {
        "unweighted_upper": unweighted_top,
        "predicted_lower": c_const,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "probe_margin": worst_margin,
    }
    ok = bounds.lower >= c_const - tol and worst_margin <= tol
    report.conclude(ok)
    return report


def verify_orthogonal_decomposition(
    family: WeightedSubspaceFamily,
    tol: float = 1e-9,
    orthogonality_tol: float = 1e-10,
) -> VerificationReport:
    """Pairwise orthogonal subspaces of a frame reproduce every vector.

    Hypotheses: the subspaces are pairwise orthogonal and the family is a
    frame. Conclusion: the unweighted projections sum to the identity.
    When the first-power identity also holds, the converse direction is
    delegated to the projection-identity check and its outcome recorded.
    """
    report = VerificationReport(check_id="orthogonal_decomposition")
    report.tolerances = {
        "decomposition_residual": tol,
        "orthogonality": orthogonality_tol,
    }
    cross = orthogonality_defect(family)
    report.add_hypothesis(
        "pairwise_orthogonal", cross <= orthogonality_tol, residual=cross
    )
    bounds = fusion.frame_bounds(family)
    report.add_hypothesis(
        "frame_lower_bound_positive",
        bounds.is_frame(),
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
    report.conclude(decomposition_res <= tol)

    # converse direction, available when the first-power identity holds
    if first_power_residual(family) <= tol:
        sub = verify_frame_from_projection_identity(family, tol=tol)
        report.constants["converse_predicted_lower"] = sub.constants["predicted_lower"]
        report.notes.append(
            "converse checked via projection-identity frame bound: "
            + ("holds" if sub.passed else "fails")
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
    vectors = [as_vector(f) for f in frame_seq]
    if not vectors:
        raise ValueError("frame_seq must be nonempty")

    res_report = resolution.verify_resolution(family)
    report.add_hypothesis(
        "base_resolution",
        res_report.passed,
        residual=res_report.constants["identity_residual"],
    )
    span = hilbert.orthonormal_basis(vectors, ambient_dim=family.ambient_dim)
    report.add_hypothesis("span_nontrivial", span.rank >= 1, residual=float(span.rank))

    c_const = res_report.constants["gram_lower"]
    d_const = res_report.constants["gram_upper"]

    seq = np.stack(vectors, axis=1)
    seq_gram = seq @ adjoint(seq)
    q = span.basis
    seq_on_span = hilbert.self_adjoint_spectrum(adjoint(q) @ seq_gram @ q) if span.rank else np.zeros(1)
    seq_lower, seq_upper = float(seq_on_span[0]), float(seq_on_span[-1])

    # sum_i omega_i^2 mu_i T_i* (F F*) T_i with F the sequence as columns
    induced = hilbert.stacked_gram(adjoint(seq) @ family.operators, family.gram_coefficients())
    on_span = hilbert.self_adjoint_spectrum(adjoint(q) @ induced @ q) if span.rank else np.zeros(1)
    lower, upper = float(on_span[0]), float(on_span[-1])

    predicted_lower = seq_lower * c_const
    predicted_upper = seq_upper * d_const
    report.constants = {
        "gram_lower": c_const,
        "gram_upper": d_const,
        "seq_lower": seq_lower,
        "seq_upper": seq_upper,
        "lower": lower,
        "upper": upper,
        "predicted_lower": predicted_lower,
        "predicted_upper": predicted_upper,
        "span_dim": float(span.rank),
    }
    ok = lower >= predicted_lower - tol and upper <= predicted_upper + tol
    report.conclude(ok)
    return report


@dataclass(frozen=True)
class SupportReconstruction:
    inverse_first: np.ndarray | None
    inverse_last: np.ndarray | None
    report: VerificationReport


def reconstruct_by_support(
    family: OperatorFamily,
    f,
    support_tol: float = 1e-10,
    tol: float = 1e-8,
    ordering_tol: float = 1e-9,
) -> SupportReconstruction:
    """Reconstruct f from the atoms supporting its coordinate span.

    The span of the canonical basis vectors carrying f is located, the
    atoms acting on that span are collected, and the restricted Gram
    operator is inverted on the span. Both orderings of the inverse are
    returned: applying it after the Gram sums (inverse first in the formula)
    and before them. Out-of-span leakage of the uncompressed sums is
    recorded as a diagnostic.
    """
    report = VerificationReport(check_id="support_reconstruction")
    report.tolerances = {"residual": tol, "ordering_gap": ordering_tol}
    if family.sum_mode is not SumMode.RAW:
        raise ValueError("support reconstruction expects a raw-mode family")
    f = as_vector(f)
    fnorm = float(np.linalg.norm(f))
    d = family.ambient_dim
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

    coords = np.flatnonzero(np.abs(f) > support_tol * fnorm)
    q = np.eye(d)[:, coords]
    # atoms acting on the span: T_i e_j is nonzero for some carried coordinate j
    acting = (np.linalg.norm(family.operators[:, :, coords], axis=1) > support_tol).any(axis=1)
    support_size = int(np.count_nonzero(acting))

    gram = hilbert.stacked_gram(
        family.operators[acting], family.gram_coefficients()[acting]
    )
    gram_on_span = adjoint(q) @ gram @ q
    spec = hilbert.self_adjoint_spectrum(gram_on_span)
    positive = float(spec[0]) > 1e-10 * max(float(spec[-1]), 0.0)
    report.add_hypothesis(
        "span_gram_positive", positive, residual=float(spec[0]),
        detail=f"span_dim={len(coords)}, support_size={support_size}",
    )
    if not positive:
        report.constants = {
            "span_dim": float(len(coords)),
            "support_size": float(support_size),
            "span_gram_lower": float(spec[0]),
        }
        report.conclude(False)
        return SupportReconstruction(None, None, report)

    y = gram @ f  # equals the full-family sum since excluded atoms kill span(f)
    inverse_first = q @ hilbert.solve_positive(gram_on_span, adjoint(q) @ y)
    u = q @ hilbert.solve_positive(gram_on_span, adjoint(q) @ f)
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
        "span_gram_lower": float(spec[0]),
        "residual_inverse_first": res_first,
        "residual_inverse_last": res_last,
        "ordering_gap": gap,
        "span_leakage": leakage,
    }
    report.conclude(res_first <= tol and res_last <= tol and gap <= ordering_tol)
    return SupportReconstruction(inverse_first, inverse_last, report)
