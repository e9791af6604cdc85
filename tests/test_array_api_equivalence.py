"""The batched Runner on an explicit :mod:`repro.xp` namespace.

The acceptance bar for the dispatch layer: running the batched engine
through ``repro.xp`` on the NumPy/float64 namespace must be ``array_equal``
to the per-topology reference (``run_reference``) for *every* registered
experiment -- the dispatch indirection itself is not allowed to cost a
single bit.

Also covered here: the runner-level integration seams -- eager
missing-torch errors, xp-config validation, cache-key sharing for the
exact namespace (and separation for inexact configs), and the CLI flags.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from helpers import run_reference
from repro.api import RunSpec, Runner
from repro.xp import BackendUnavailableError
from test_vectorized_equivalence import EXPERIMENT_CASES

TORCH_MISSING = importlib.util.find_spec("torch") is None


@pytest.mark.parametrize(
    "experiment,spec_kwargs,params",
    EXPERIMENT_CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(EXPERIMENT_CASES)],
)
def test_numpy_namespace_is_bit_identical_to_reference(
    experiment, spec_kwargs, params
):
    spec = RunSpec(experiment, seed=7, params=params, **spec_kwargs)
    reference = run_reference(spec)
    batched = Runner(namespace="numpy", device="cpu", dtype="float64").run(spec)
    assert set(reference.series) == set(batched.series)
    for key in reference.series:
        assert np.array_equal(reference.series[key], batched.series[key]), key


# ----------------------------------------------------------------------
# Runner integration seams
# ----------------------------------------------------------------------
def test_invalid_xp_configs_fail_at_construction():
    # Eager resolution: a bad config must not wait for .run() to explode.
    with pytest.raises(ValueError, match="dtype"):
        Runner(dtype="float16")
    with pytest.raises(ValueError, match="device"):
        Runner(device="cuda")  # numpy namespace is CPU-only


@pytest.mark.skipif(not TORCH_MISSING, reason="torch is installed here")
def test_missing_torch_fails_eagerly_with_the_extra_named():
    with pytest.raises(BackendUnavailableError, match=r"repro-midas\[torch\]"):
        Runner(namespace="torch")
    # The numpy namespace keeps working after the failed construction.
    result = Runner().run(RunSpec("fig03", n_topologies=2, seed=1))
    assert result.series


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
def test_explicit_exact_namespace_shares_cache_entries_with_default(tmp_path):
    spec = RunSpec("fig03", n_topologies=3, seed=1)
    first = Runner(cache_dir=tmp_path).run(spec)
    # Spelling out the default NumPy/float64 config must *hit* the default
    # runner's entry, not write a second one.
    second = Runner(namespace="numpy", dtype="float64", cache_dir=tmp_path).run(spec)
    assert len(list(tmp_path.iterdir())) == 1
    for key in first.series:
        assert np.array_equal(first.series[key], second.series[key])


def test_inexact_configs_get_their_own_cache_entries(tmp_path):
    spec = RunSpec("fig03", n_topologies=3, seed=1)
    exact = Runner(cache_dir=tmp_path).run(spec)
    blurred = Runner(dtype="float32", cache_dir=tmp_path).run(spec)
    # float32 results are *not* bit-equal; sharing a key would poison the
    # exact cache.
    assert len(list(tmp_path.iterdir())) == 2
    assert not all(
        np.array_equal(exact.series[k], blurred.series[k]) for k in exact.series
    )
    # And the float32 entry round-trips for the same config.
    again = Runner(dtype="float32", cache_dir=tmp_path).run(spec)
    assert len(list(tmp_path.iterdir())) == 2
    for key in blurred.series:
        assert np.array_equal(blurred.series[key], again.series[key])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_accepts_the_xp_flags(capsys, tmp_path):
    from repro.experiments.registry import main

    out = tmp_path / "fig03.json"
    code = main(
        [
            "fig03",
            "--topologies",
            "2",
            "--seed",
            "3",
            "--dtype",
            "float32",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert "fig03" in capsys.readouterr().out
