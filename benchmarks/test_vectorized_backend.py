"""Batched Runner vs the per-topology reference.

The "loop" side of every timing is ``run_reference`` (the experiments'
scalar ``build`` walked seed by seed, ``tests/helpers/reference.py``); the
"vectorized" side is ``Runner()``, whose one execution path stacks whole
seed batches through ``build_batch``.

Opt-in like every benchmark (``python -m pytest benchmarks/``):

* ``test_vectorized_speedup_100_topologies`` -- the capacity-sweep claim:
  the batched Runner runs a 100-topology fig10 sweep (naive and
  power-balanced precoding on paired CAS/DAS deployments) at >= 3x the
  per-topology reference, bit-identically.
* ``test_vectorized_fig15_speedup_100_topologies`` -- the round-engine
  claim: the batched quasi-static network evaluator runs a 100-topology
  fig15 sweep (3-AP CAS vs MIDAS, 24 rounds each, overhearing-gated
  rejection sampling) at >= 3x the reference, bit-identically.
* ``test_vectorized_latency_smoke`` (``-m benchsmoke``) -- the finite-load
  claim: a 100-topology ``latency_vs_load`` sweep (Poisson arrivals, two
  offered loads, per-round A-MPDU service and delay accounting on both
  paths) runs >= 3x faster batched, bit-identically.  The queueing
  layer itself is deliberately shared scalar code, so this guards against
  it ever growing into the bottleneck that erases the batching win.
* ``test_vectorized_mobility_smoke`` (``-m benchsmoke``) -- the
  moving-channel claim: a 100-topology ``mobility_capacity`` sweep
  (pedestrian Gauss-Markov trajectories, per-client Doppler, stale-CSI
  precoding with periodic re-sounding and tag re-derivation on both
  paths) runs >= 3x faster batched, bit-identically.  Mobility adds
  per-item python work (trajectory steps, per-item shadowing resampling)
  to both paths; this guards the batching win against that overhead.
* ``test_vectorized_smoke`` / ``test_vectorized_fig15_smoke``
  (``-m benchsmoke``) -- seconds-scale versions for CI: assert
  bit-identity and always write the timing JSON artifact.

Every >= 3x gate times both sides as the fastest of three runs, so one
slow run on a shared machine cannot decide it.  Timings go to
``$VECTORIZED_BENCH_JSON`` (default
``vectorized_timings.json``, the fig15 run appends ``-fig15``) so CI can
upload them as artifacts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import run_reference
from repro.api import RunSpec, Runner


def _best_of(run, spec: RunSpec, repeats: int) -> tuple[float, dict]:
    """Fastest wall-clock of ``repeats`` ``run(spec)`` calls plus the last
    result's series."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run(spec)
        best = min(best, time.perf_counter() - start)
    return best, result.series


def _run_benchmark(
    experiment: str,
    n_topologies: int,
    repeats: int,
    suffix: str = "",
    params: dict | None = None,
) -> dict:
    spec = RunSpec(experiment, n_topologies=n_topologies, seed=0, params=params or {})
    loop_s, loop_series = _best_of(run_reference, spec, repeats)
    vec_s, vec_series = _best_of(Runner().run, spec, repeats)
    for key in loop_series:
        assert np.array_equal(loop_series[key], vec_series[key]), (
            f"batched Runner diverged from the reference on series {key!r}"
        )
    timings = {
        "experiment": experiment,
        "n_topologies": n_topologies,
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "speedup": loop_s / vec_s,
        "bit_identical": True,
    }
    out = Path(os.environ.get("VECTORIZED_BENCH_JSON", "vectorized_timings.json"))
    if suffix:
        out = out.with_name(out.stem + suffix + out.suffix)
    out.write_text(json.dumps(timings, indent=2) + "\n")
    print(
        f"\n{experiment} x{n_topologies}: reference {loop_s:.3f}s, "
        f"batched {vec_s:.3f}s, speedup {timings['speedup']:.2f}x -> {out}"
    )
    return timings


def test_vectorized_speedup_100_topologies():
    timings = _run_benchmark("fig10", n_topologies=100, repeats=3)
    assert timings["speedup"] >= 3.0, (
        f"batched Runner only {timings['speedup']:.2f}x faster"
    )


def test_vectorized_fig15_speedup_100_topologies():
    # The round-based network engine: 100 three-AP topologies at the
    # registered default of 24 rounds each, including the CAS overhearing
    # gate's rejection sampling (which the batched scheduler overdraws).
    timings = _run_benchmark("fig15", n_topologies=100, repeats=3, suffix="-fig15")
    assert timings["speedup"] >= 3.0, (
        f"batched round engine only {timings['speedup']:.2f}x faster"
    )


#: The finite-load smoke sweep: two offered loads bracketing the CAS knee,
#: 30 TXOP rounds per topology -- big enough that the stacked round engine
#: amortizes, small enough to stay seconds-scale on CI.
_LATENCY_PARAMS = {"offered_loads_mbps": [20.0, 80.0], "rounds_per_topology": 30}


@pytest.mark.benchsmoke
def test_vectorized_latency_smoke():
    # The finite-load sweep must keep the batching win even though queue
    # accounting is shared scalar code: >= 3x, bit-identical delay series.
    timings = _run_benchmark(
        "latency_vs_load",
        n_topologies=100,
        repeats=3,
        suffix="-latency",
        params=_LATENCY_PARAMS,
    )
    assert timings["bit_identical"]
    assert timings["speedup"] >= 3.0, (
        f"batched finite-load sweep only {timings['speedup']:.2f}x faster"
    )


#: The moving-channel smoke sweep: two pedestrian speeds, 30 rounds per
#: topology with re-sounding every 4th round -- big enough to amortize the
#: stacked round engine, seconds-scale on CI.
_MOBILITY_PARAMS = {"speeds_mps": [1.0, 3.0], "rounds_per_topology": 30}


@pytest.mark.benchsmoke
def test_vectorized_mobility_smoke():
    # The mobility sweep must keep the batching win even though trajectory
    # stepping and large-scale re-evaluation are per-item python code:
    # >= 3x, bit-identical capacity and sounding-overhead series.
    timings = _run_benchmark(
        "mobility_capacity",
        n_topologies=100,
        repeats=3,
        suffix="-mobility",
        params=_MOBILITY_PARAMS,
    )
    assert timings["bit_identical"]
    assert timings["speedup"] >= 3.0, (
        f"batched mobility sweep only {timings['speedup']:.2f}x faster"
    )


@pytest.mark.benchsmoke
def test_vectorized_smoke():
    timings = _run_benchmark("fig10", n_topologies=12, repeats=2)
    # The bit-identity assertion inside _run_benchmark is the smoke test's
    # real job; millisecond-scale timings on shared CI runners are too
    # noisy to gate on, so the speedup is only recorded in the artifact.
    # The >= 3x claim is the opt-in 100-topology benchmark's to enforce.
    assert timings["bit_identical"]


@pytest.mark.benchsmoke
def test_vectorized_fig15_smoke():
    timings = _run_benchmark("fig15", n_topologies=6, repeats=1, suffix="-fig15")
    assert timings["bit_identical"]
