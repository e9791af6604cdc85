"""Reverse water-filling (paper §3.1.2, eqs. 7-9).

Given the most-violating antenna (row ``k*`` of the precoding matrix), we
must *remove* enough power from the row to restore the per-antenna budget
``P`` while losing as little sum rate as possible.  The paper's Lagrangian
solution gives the power reduction of stream ``j`` as

    ``P_j = [ (1 + 1/rho_j) * |v_kj|^2  -  1/lambda ]+``

where ``rho_j`` is the stream's current SINR and ``1/lambda`` plays the role
of the water level: streams whose (SINR-weighted) row power pokes above the
level are shaved down to it, streams below it are untouched.  Two paper
requirements shape the solver:

* (i) **no stream may reach zero power** -- a zeroed column would drop the
  stream entirely, so reductions are capped at ``(1 - min_weight^2)`` of the
  element's power;
* (ii) **only reductions are allowed** (``P_j >= 0``) -- increases could
  re-violate antennas that were already fixed and prevent convergence.

The level itself is solved in closed form (:func:`exact_water_level`): the
removed power ``sum_j clip(m_j - L, 0, c_j)`` is piecewise linear in the
level ``L``, so sorting its ``2n`` breakpoints brackets the solution on one
linear segment.  :mod:`repro.core.batch` runs the same function on stacks,
which keeps the scalar and batched solvers bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..xp import array_namespace


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of one reverse water-filling on one antenna row."""

    weights: np.ndarray  # per-stream scaling weights w_j in (0, 1]
    reductions_mw: np.ndarray  # per-stream power removed from this row
    water_level: float  # 1/lambda at the solution
    capped: bool  # True if the min-weight floor was binding

    @property
    def feasible(self) -> bool:
        """Whether the requested budget was actually reached."""
        return not self.capped


def exact_water_level(marginal, caps, required):
    """Solve ``sum_j clip(m_j - L, 0, c_j) = required`` for the water level
    ``L``; returns ``(L, reductions)`` for ``(..., n)`` stacks in any
    :mod:`repro.xp` namespace.

    The removed power is continuous, piecewise linear and non-increasing in
    ``L`` with breakpoints ``{m_j - c_j, m_j}``.  Evaluating it at the sorted
    breakpoints brackets ``required`` on one segment, where interpolating
    between the two ends is exact.  ``required`` has the stack's leading
    shape; rows outside ``0 < required < sum(caps)`` get finite values that
    callers discard.
    """
    xp = array_namespace(marginal, caps)
    floors = marginal - caps
    breakpoints = xp.sort(xp.concatenate([floors, marginal], axis=-1), axis=-1)
    removed = xp.sum(
        xp.clip(
            marginal[..., None, :] - breakpoints[..., :, None],
            0.0,
            caps[..., None, :],
        ),
        axis=-1,
    )
    # First breakpoint whose removed power no longer exceeds the target:
    # the solution lies between it and its predecessor.
    n_points = breakpoints.shape[-1]
    upper = xp.clip(
        xp.sum(removed > required[..., None], axis=-1), 1, n_points - 1
    )[..., None]
    ends = xp.concatenate([upper - 1, upper], axis=-1)
    level_ends = xp.take_along_axis(breakpoints, ends, axis=-1)
    removed_ends = xp.take_along_axis(removed, ends, axis=-1)
    level_lo, level_hi = level_ends[..., :1], level_ends[..., 1:]
    removed_lo = removed_ends[..., 0]
    drop = removed_lo - removed_ends[..., 1]
    step = xp.clip(
        (removed_lo - required) / xp.where(drop > 0, drop, 1.0), 0.0, 1.0
    )
    level = level_lo[..., 0] + step * (level_hi[..., 0] - level_lo[..., 0])
    reductions = xp.clip(marginal - level[..., None], 0.0, caps)

    # Exact budget: a near-zero SINR puts its stream's level coordinate at
    # ~1e12 x its power, where ``marginal - level`` keeps only a few digits.
    # The streams spanning the bracketing segment remove power at slope one
    # each, so sharing the residual among them lands on the target.
    spanning = (floors <= level_lo) & (marginal >= level_hi)
    residual = required - xp.sum(reductions, axis=-1)
    share = residual / xp.maximum(xp.sum(spanning, axis=-1), 1)
    reductions = xp.where(
        spanning, xp.clip(reductions + share[..., None], 0.0, caps), reductions
    )
    return level, reductions


def reverse_waterfill(
    row_powers_mw: np.ndarray,
    sinrs: np.ndarray,
    power_budget_mw: float,
    min_weight: float = 0.1,
) -> WaterfillResult:
    """Compute scaling weights for one violating antenna row.

    Parameters
    ----------
    row_powers_mw:
        ``|v_kj|^2`` for each stream ``j`` on the violating antenna ``k``.
    sinrs:
        Current stream SINRs ``rho_j`` (post-ZF, so SNRs).
    power_budget_mw:
        The per-antenna constraint ``P`` the row must meet.
    min_weight:
        Floor on each weight so no stream is eliminated (paper req. (i)).

    Returns
    -------
    WaterfillResult
        ``weights`` multiply the *columns* of the precoder (so the ZF
        property is preserved); ``weights[j] = sqrt(1 - P_j / |v_kj|^2)``.
    """
    q = np.asarray(row_powers_mw, dtype=float)
    rho = np.asarray(sinrs, dtype=float)
    if q.shape != rho.shape or q.ndim != 1:
        raise ValueError("row_powers_mw and sinrs must be 1-D with equal length")
    if power_budget_mw <= 0:
        raise ValueError("power_budget_mw must be positive")
    if not 0.0 < min_weight < 1.0:
        raise ValueError("min_weight must be in (0, 1)")
    if np.any(q < 0) or np.any(rho < 0):
        raise ValueError("row powers and SINRs must be non-negative")

    total = float(q.sum())
    required_reduction = total - power_budget_mw
    if required_reduction <= 0:
        return WaterfillResult(
            weights=np.ones_like(q),
            reductions_mw=np.zeros_like(q),
            water_level=float(np.inf),
            capped=False,
        )

    # Guard against zero-SINR streams: (1 + 1/rho) -> a large finite weight so
    # such streams are shaved first (they carry ~no rate anyway).
    rho_safe = np.maximum(rho, 1e-12)
    marginal = (1.0 + 1.0 / rho_safe) * q  # water-level coordinates per stream
    caps = (1.0 - min_weight**2) * q  # max removable power per stream (req. i)

    # marginal >= caps elementwise, so the deepest cut removes every cap.
    if required_reduction >= float(np.sum(caps)):
        # Min-weight caps bind everywhere: return the deepest allowed cut.
        reductions = caps
        weights = np.sqrt(np.maximum(1.0 - reductions / np.maximum(q, 1e-300), 0.0))
        weights = np.where(q > 0, np.maximum(weights, min_weight), 1.0)
        return WaterfillResult(
            weights=weights, reductions_mw=reductions, water_level=0.0, capped=True
        )

    level, reductions = exact_water_level(
        marginal, caps, np.asarray(required_reduction)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, reductions / np.maximum(q, 1e-300), 0.0)
    weights = np.sqrt(np.clip(1.0 - ratio, min_weight**2, 1.0))
    return WaterfillResult(
        weights=weights,
        reductions_mw=reductions,
        water_level=float(level),
        capped=False,
    )
