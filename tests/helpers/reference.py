"""The per-topology reference the batched Runner is held to.

``Runner`` evaluates every sweep through the experiments' ``build_batch``
hooks.  The oracle for that path is the experiment's scalar ``build``
walked seed by seed over the same derived-seed stream, which is what
:func:`run_reference` does.  The equivalence suites assert ``array_equal``
between the two; the benchsmoke speedup gates time them against each
other.
"""

from __future__ import annotations

from typing import Callable

from repro import rng as rng_mod


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
