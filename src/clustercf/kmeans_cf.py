"""Closed-form counterfactuals for centroid (k-means) cluster pairs.

For source center m_s, target center m_t and plausibility factor eps, the
candidate set is the hyperplane

    z . v = c,   v = m_s - m_t,   c = (|m_s|^2 - |m_t|^2 - d_eps) / 2,

with d_eps = eps * |m_t - m_s|^2. At eps = 0 this is the pair boundary;
larger eps shifts it into the target region. With free coordinates F and
fixed coordinates G, the minimum squared-distance feasible point is the
orthogonal projection of y_F onto the induced hyperplane in the free
coordinates; fixed coordinates keep the factual's values bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_DEGENERATE_IDENTITY,
    STATUS_NO_FEASIBLE_SOLUTION,
    STATUS_OK,
    CfResult,
    Mask,
)

# Scale-relative tolerance for plane membership and the degenerate test.
PLANE_TOL_FACTOR = 1e-9


@dataclass(frozen=True, eq=False)
class KmeansConstraint:
    """Hyperplane z.v = c with its mask-induced split of v."""

    v: np.ndarray
    c: float
    d_eps: float
    v_free: np.ndarray
    v_fixed: np.ndarray


def build_constraint(m_s, m_t, epsilon: float, mask: Mask) -> KmeansConstraint:
    """Constraint plane for a center pair at the given plausibility factor.
    Inputs are trusted: `explain` calls this after `CfRequest.validate_against`
    has checked the mask and epsilon; `ClusterModel` rejects identical centers."""
    m_s = np.asarray(m_s, dtype=np.float64)
    m_t = np.asarray(m_t, dtype=np.float64)
    v = m_s - m_t
    d_eps = epsilon * float(v @ v)
    c = (float(m_s @ m_s) - float(m_t @ m_t) - d_eps) / 2.0
    return KmeansConstraint(
        v=v, c=c, d_eps=d_eps, v_free=v[mask.free].copy(), v_fixed=v[mask.fixed].copy()
    )


def solve_kmeans_cf(y, constraint: KmeansConstraint, mask: Mask) -> CfResult:
    """Project the factual onto the constraint plane within the free coordinates.

    Returns `no_feasible_solution` when the plane cannot be reached with the
    given mask (v_free = 0 with a nonzero offset) and `degenerate_identity`
    when the factual already satisfies the constraint under that mask.
    The factual and mask are trusted to match the constraint's dimension.
    """
    y = np.asarray(y, dtype=np.float64)
    y_free = y[mask.free]
    c_prime = constraint.c - float(y[mask.fixed] @ constraint.v_fixed)
    vf2 = float(constraint.v_free @ constraint.v_free)
    tol = PLANE_TOL_FACTOR * (1.0 + abs(constraint.c))

    if vf2 == 0.0:
        # Nothing actionable moves the constraint value; it either already
        # holds at y or can never hold.
        residual = float(y @ constraint.v) - constraint.c
        if abs(c_prime) <= tol:
            return CfResult(
                status=STATUS_DEGENERATE_IDENTITY,
                counterfactual=y.copy(),
                distance_sq=0.0,
                residual=residual,
            )
        return CfResult(
            status=STATUS_NO_FEASIBLE_SOLUTION,
            counterfactual=None,
            distance_sq=None,
            residual=residual,
        )

    offset = (float(y_free @ constraint.v_free) - c_prime) / vf2
    z = y.copy()
    z[mask.free] = y_free - offset * constraint.v_free
    residual = float(z @ constraint.v) - constraint.c
    dz = z[mask.free] - y_free
    return CfResult(
        status=STATUS_OK,
        counterfactual=z,
        distance_sq=float(dz @ dz),
        residual=residual,
    )
