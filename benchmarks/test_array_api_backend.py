"""Array-namespace timings of the batched Runner.

Opt-in like every benchmark (``python -m pytest benchmarks/``):

* ``test_array_api_1024_topologies`` -- a 1024-topology fig09 capacity
  sweep (naive + power-balanced precoding on paired CAS/DAS deployments,
  2x2 and 4x4) on the default NumPy/float64 namespace and on the float32
  configuration, recorded for the trajectory.  Bit-identity of the
  NumPy/float64 path against the per-topology reference is the tier-1
  equivalence suites' job; there is no second batched path left to
  compare against.
* ``test_array_api_torch_1024_topologies`` -- the same sweep on torch CPU
  float64 (skipped unless torch is installed); recorded, not gated --
  torch's CPU kernels are not expected to beat NumPy at 4x4 scale, the
  win it unlocks is CUDA at large batch.
* ``test_array_api_smoke`` (``-m benchsmoke``) -- seconds-scale CI
  version: always writes the timing JSON.

Timings go to ``$ARRAY_API_BENCH_JSON`` (default
``array_api_timings.json``) so CI can upload them as artifacts.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, Runner

TORCH_MISSING = importlib.util.find_spec("torch") is None


def _best_of(runner: Runner, spec: RunSpec, repeats: int) -> tuple[float, dict]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner.run(spec)
        best = min(best, time.perf_counter() - start)
    return best, result.series


def _write(timings: dict, suffix: str = "") -> None:
    out = Path(os.environ.get("ARRAY_API_BENCH_JSON", "array_api_timings.json"))
    if suffix:
        out = out.with_name(out.stem + suffix + out.suffix)
    out.write_text(json.dumps(timings, indent=2) + "\n")
    print(f"\n{json.dumps(timings, indent=2)}\n-> {out}")


def _run_benchmark(n_topologies: int, repeats: int, suffix: str = "") -> dict:
    spec = RunSpec("fig09", n_topologies=n_topologies, seed=0)
    f64_s, _ = _best_of(Runner(), spec, repeats)
    f32_s, _ = _best_of(Runner(dtype="float32"), spec, repeats)
    timings = {
        "experiment": "fig09",
        "n_topologies": n_topologies,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "vectorized_seconds": f64_s,
        "array_api_numpy_f32_seconds": f32_s,
    }
    _write(timings, suffix)
    return timings


def test_array_api_1024_topologies():
    _run_benchmark(n_topologies=1024, repeats=2)


@pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
def test_array_api_torch_1024_topologies():
    spec = RunSpec("fig09", n_topologies=1024, seed=0)
    vec_s, _ = _best_of(Runner(), spec, 1)
    torch_s, _ = _best_of(Runner(namespace="torch"), spec, 1)
    _write(
        {
            "experiment": "fig09",
            "n_topologies": 1024,
            "vectorized_seconds": vec_s,
            "array_api_torch_cpu_f64_seconds": torch_s,
        },
        suffix="-torch",
    )


@pytest.mark.benchsmoke
def test_array_api_smoke():
    # Millisecond timings on shared CI runners are too noisy to gate on;
    # the smoke run only proves both namespaces run and records them.
    _run_benchmark(n_topologies=12, repeats=2)
