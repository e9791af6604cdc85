"""Reference implementations the production code is held to.

``Runner`` evaluates every sweep through the experiments' ``build_batch``
hooks.  The oracle for that path is the experiment's scalar ``build``
walked seed by seed over the same derived-seed stream, which is what
:func:`run_reference` does.  The equivalence suites assert ``array_equal``
between the two; the benchsmoke speedup gates time them against each
other.

:func:`bisection_reverse_waterfill` is the oracle for the closed-form
water level of :mod:`repro.core.waterfill`: the same reverse water-filling
solved by bisection on the level.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import rng as rng_mod
from repro.core.waterfill import WaterfillResult

#: Bisection stopping tolerance on the water level, relative to
#: ``max(1, level)``; also the budget tolerance of the residual repair.
BISECTION_RTOL = 1e-9


def sweep_topologies(
    n_topologies: int,
    seed: int,
    build: Callable[[int], dict],
) -> list[dict]:
    """Evaluate ``build(topology_seed)`` over derived per-topology seeds.

    ``build`` may return ``None`` to reject a topology (placement
    constraints); the sweep keeps drawing seeds until ``n_topologies``
    results are collected, with the runner's attempt cap.
    """
    if n_topologies < 1:
        raise ValueError("need at least one topology")
    results: list[dict] = []
    attempts = 0
    max_attempts = max(200, 80 * n_topologies)
    stream = rng_mod.seed_stream(seed)
    while len(results) < n_topologies and attempts < max_attempts:
        topo_seed = next(stream)
        attempts += 1
        outcome = build(topo_seed)
        if outcome is not None:
            results.append(outcome)
    if len(results) < n_topologies:
        raise RuntimeError(
            f"only {len(results)}/{n_topologies} topologies satisfied the "
            f"placement constraints after {attempts} attempts"
        )
    return results


def run_reference(spec):
    """``spec`` evaluated one topology at a time with the scalar ``build``.

    Resolves parameters exactly as :class:`repro.api.Runner` does, so the
    returned :class:`repro.api.RunResult` must be ``array_equal`` to
    ``Runner().run(spec)``.  No cache, no namespace, no batching.
    """
    from repro.api import RunResult, get_experiment_def, resolve_params

    defn = get_experiment_def(spec.experiment)
    params = resolve_params(defn, spec)
    outcomes = sweep_topologies(
        int(params["n_topologies"]),
        int(params["seed"]),
        lambda topo_seed: defn.build(topo_seed, params),
    )
    return RunResult.from_experiment_result(defn.finalize(outcomes, params), spec)


def bisection_reverse_waterfill(
    row_powers_mw,
    sinrs,
    power_budget_mw: float,
    min_weight: float = 0.1,
) -> WaterfillResult:
    """:func:`repro.core.waterfill.reverse_waterfill` with the water level
    found by bisection instead of in closed form.

    The level is bracketed in ``[0, max(marginal)]`` and halved until the
    bracket is within :data:`BISECTION_RTOL` of ``max(1, level)``; any
    budget residual left by that tolerance is spread over the streams
    strictly between zero and their cap.  Inputs are assumed valid.
    """
    q = np.asarray(row_powers_mw, dtype=float)
    rho = np.asarray(sinrs, dtype=float)
    required_reduction = float(q.sum()) - power_budget_mw
    if required_reduction <= 0:
        return WaterfillResult(
            weights=np.ones_like(q),
            reductions_mw=np.zeros_like(q),
            water_level=float(np.inf),
            capped=False,
        )

    rho_safe = np.maximum(rho, 1e-12)
    marginal = (1.0 + 1.0 / rho_safe) * q
    caps = (1.0 - min_weight**2) * q

    def total_reduction(level: float) -> float:
        return float(np.sum(np.clip(marginal - level, 0.0, caps)))

    if required_reduction >= total_reduction(0.0):
        weights = np.sqrt(np.maximum(1.0 - caps / np.maximum(q, 1e-300), 0.0))
        weights = np.where(q > 0, np.maximum(weights, min_weight), 1.0)
        return WaterfillResult(
            weights=weights, reductions_mw=caps, water_level=0.0, capped=True
        )

    low, high = 0.0, float(marginal.max())
    for _ in range(200):
        mid = 0.5 * (low + high)
        if total_reduction(mid) > required_reduction:
            low = mid
        else:
            high = mid
        if high - low <= BISECTION_RTOL * max(1.0, high):
            break
    level = 0.5 * (low + high)
    reductions = np.clip(marginal - level, 0.0, caps)

    residual = required_reduction - float(reductions.sum())
    if abs(residual) > BISECTION_RTOL * power_budget_mw:
        active = (reductions > 0) & (reductions < caps)
        n_active = int(active.sum())
        if n_active:
            reductions = reductions.copy()
            reductions[active] = np.clip(
                reductions[active] + residual / n_active, 0.0, caps[active]
            )

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, reductions / np.maximum(q, 1e-300), 0.0)
    weights = np.sqrt(np.clip(1.0 - ratio, min_weight**2, 1.0))
    return WaterfillResult(
        weights=weights, reductions_mw=reductions, water_level=level, capped=False
    )
