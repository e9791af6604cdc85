"""The tolerance-based equivalence tier and its closeness framework.

Two halves:

1. The framework itself (``helpers.closeness``) is property-tested with
   deliberately perturbed results -- the crucial direction is that it
   *fails when it should*, since a closeness check that silently passes
   everything is worse than none.
2. The documented per-namespace contracts (``helpers.contracts``) are
   enforced end-to-end: the float32 NumPy configuration (torch-free,
   runs everywhere) and -- when torch is installed -- the torch-CPU
   float64 configuration must meet ``contract_for(...)`` against the
   bit-exact NumPy/float64 Runner.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ClosenessError,
    MetricTolerance,
    ToleranceContract,
    assert_close_result,
    assert_close_series,
    contract_for,
)
from helpers.contracts import EXACT_CONTRACT, ORDERING_SENSITIVE
from repro.api import RunSpec, Runner

TORCH_MISSING = importlib.util.find_spec("torch") is None


# ----------------------------------------------------------------------
# Framework: accepts what it should
# ----------------------------------------------------------------------
def _series(seed: int = 0, n: int = 64) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "cas": rng.uniform(0.0, 40.0, n),
        "das": rng.uniform(0.0, 40.0, n),
    }


def test_identical_series_pass_the_exact_contract():
    s = _series()
    assert_close_series(s, {k: v.copy() for k, v in s.items()}, EXACT_CONTRACT)


def test_perturbation_within_atol_passes():
    s = _series()
    contract = ToleranceContract(name="t", default=MetricTolerance(atol=1e-6))
    bumped = {k: v + 5e-7 for k, v in s.items()}
    assert_close_series(bumped, s, contract)


def test_relative_tolerance_scales_with_the_expected_value():
    expected = {"x": np.array([1e-3, 1.0, 1e3])}
    actual = {"x": expected["x"] * (1 + 5e-7)}
    assert_close_series(
        actual, expected, ToleranceContract(name="t", default=MetricTolerance(rtol=1e-6))
    )
    with pytest.raises(ClosenessError):
        assert_close_series(
            actual,
            expected,
            ToleranceContract(name="t", default=MetricTolerance(atol=1e-6)),
        )  # the 1e3 entry deviates by 5e-4 > atol


def test_quantile_contract_tolerates_sample_reordering():
    s = _series(3)
    shuffled = {k: np.random.default_rng(1).permutation(v) for k, v in s.items()}
    distributional = ToleranceContract(
        name="t", default=MetricTolerance(elementwise=False, quantile_atol=1e-9)
    )
    assert_close_series(shuffled, s, distributional)  # same distribution
    with pytest.raises(ClosenessError, match="out of tolerance"):
        assert_close_series(shuffled, s, EXACT_CONTRACT)


def test_matching_non_finite_samples_pass_any_contract():
    s = {"x": np.array([1.0, np.inf, -np.inf])}
    assert_close_series(s, {"x": s["x"].copy()}, EXACT_CONTRACT)


# ----------------------------------------------------------------------
# Framework: fails when it should (the property that matters)
# ----------------------------------------------------------------------
@given(
    index=st.integers(min_value=0, max_value=63),
    scale=st.floats(min_value=2.0, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_perturbation_beyond_tolerance_always_fails(index, scale, seed):
    # Any single sample pushed beyond atol + rtol*|expected| must trip the
    # elementwise check, wherever it lands and however large the series.
    tol = MetricTolerance(rtol=1e-6, atol=1e-6)
    contract = ToleranceContract(name="t", default=tol)
    expected = _series(seed)
    actual = {k: v.copy() for k, v in expected.items()}
    margin = tol.atol + tol.rtol * abs(expected["das"][index])
    actual["das"][index] += scale * margin
    with pytest.raises(ClosenessError, match="das"):
        assert_close_series(actual, expected, contract)


@given(shift=st.floats(min_value=0.5, max_value=50.0), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_distribution_shift_beyond_quantile_atol_always_fails(shift, seed):
    # A uniform shift moves every quantile by exactly `shift`; any shift
    # beyond quantile_atol + one sketch bin must trip the sketch check
    # even though elementwise checking is off.
    contract = ToleranceContract(
        name="t", default=MetricTolerance(elementwise=False, quantile_atol=0.25)
    )
    expected = _series(seed)
    actual = {k: v + shift for k, v in expected.items()}
    with pytest.raises(ClosenessError, match="quantile"):
        assert_close_series(actual, expected, contract)


def test_missing_extra_and_misshapen_series_fail():
    s = _series()
    with pytest.raises(ClosenessError, match="missing series"):
        assert_close_series({"cas": s["cas"]}, s, EXACT_CONTRACT)
    with pytest.raises(ClosenessError, match="unexpected series"):
        assert_close_series({**s, "bonus": s["cas"]}, s, EXACT_CONTRACT)
    with pytest.raises(ClosenessError, match="shape"):
        assert_close_series({**s, "das": s["das"][:-1]}, s, EXACT_CONTRACT)


def test_non_finite_mismatch_fails_regardless_of_tolerance():
    loose = ToleranceContract(name="t", default=MetricTolerance(atol=1e9, rtol=1e9))
    expected = {"x": np.array([1.0, 2.0, 3.0])}
    actual = {"x": np.array([1.0, np.inf, 3.0])}
    with pytest.raises(ClosenessError, match="non-finite"):
        assert_close_series(actual, expected, loose)


def test_per_series_overrides_take_precedence_over_the_default():
    contract = ToleranceContract(
        name="t",
        default=MetricTolerance(),  # exact
        series={"das": MetricTolerance(atol=1.0)},
    )
    expected = _series()
    actual = {k: v.copy() for k, v in expected.items()}
    actual["das"] += 0.5
    assert_close_series(actual, expected, contract)  # override absorbs it
    actual["cas"] += 0.5
    with pytest.raises(ClosenessError, match="cas"):
        assert_close_series(actual, expected, contract)


def test_tolerance_validation_rejects_nonsense():
    with pytest.raises(ValueError, match="non-negative"):
        MetricTolerance(atol=-1.0)
    with pytest.raises(ValueError, match="checks nothing"):
        MetricTolerance(elementwise=False)  # no quantile_atol either


def test_assert_close_result_checks_experiment_identity():
    a = Runner().run(RunSpec("fig03", n_topologies=2, seed=0))
    b = Runner().run(RunSpec("fig07", n_topologies=2, seed=0))
    with pytest.raises(ClosenessError, match="different experiments"):
        assert_close_result(a, b, EXACT_CONTRACT)


# ----------------------------------------------------------------------
# Contracts: documented tiers resolve sensibly
# ----------------------------------------------------------------------
def test_contract_for_returns_the_exact_tier_on_the_default_namespace():
    assert contract_for("fig09", "numpy", "float64") is EXACT_CONTRACT


def test_contract_for_swaps_distributional_defaults_for_ordering_sensitive():
    smooth = contract_for("fig09", "numpy", "float32")
    branchy = contract_for("fig14", "numpy", "float32")
    assert smooth.default.elementwise
    assert not branchy.default.elementwise
    assert branchy.default.quantile_atol is not None
    assert "fig14" in branchy.name


def test_ordering_sensitive_set_names_registered_experiments_only():
    from repro.api import experiment_names

    assert ORDERING_SENSITIVE <= set(experiment_names())


# ----------------------------------------------------------------------
# End-to-end: float32 NumPy meets its documented contract (torch-free)
# ----------------------------------------------------------------------
#: Spot checks spanning both tiers: smooth capacity sweeps and
#: ordering-sensitive pipelines (greedy selection, MAC rounds, queueing).
F32_CASES = [
    ("fig03", {"n_topologies": 4}, {}),
    ("fig07", {"n_topologies": 4}, {}),
    ("fig09", {"n_topologies": 3}, {}),
    ("fig10", {"n_topologies": 4}, {}),
    ("fig14", {"n_topologies": 6}, {}),
    ("fig15", {"n_topologies": 2}, {"rounds_per_topology": 3}),
    ("ablation_csi_error", {"n_topologies": 3}, {"error_stds": [0.0, 0.1]}),
    (
        "latency_vs_load",
        {"n_topologies": 2},
        {"offered_loads_mbps": [15.0, 60.0], "rounds_per_topology": 6},
    ),
]


@pytest.mark.parametrize(
    "experiment,spec_kwargs,params",
    F32_CASES,
    ids=[c[0] for c in F32_CASES],
)
def test_float32_numpy_meets_the_documented_contract(
    experiment, spec_kwargs, params
):
    spec = RunSpec(experiment, seed=7, params=params, **spec_kwargs)
    reference = Runner().run(spec)
    actual = Runner(dtype="float32").run(spec)
    contract = contract_for(experiment, "numpy", "float32")
    assert contract is not EXACT_CONTRACT
    assert_close_result(actual, reference, contract)


# ----------------------------------------------------------------------
# End-to-end: torch CPU float64 (runs only where torch is installed;
# CI's dedicated torch job exercises it, tier-1 stays torch-free)
# ----------------------------------------------------------------------
TORCH_CASES = F32_CASES + [("fig08", {"n_topologies": 3}, {})]


@pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
@pytest.mark.parametrize(
    "experiment,spec_kwargs,params",
    TORCH_CASES,
    ids=[c[0] for c in TORCH_CASES],
)
def test_torch_cpu_float64_meets_the_documented_contract(
    experiment, spec_kwargs, params
):
    spec = RunSpec(experiment, seed=7, params=params, **spec_kwargs)
    reference = Runner().run(spec)
    actual = Runner(namespace="torch").run(spec)
    assert_close_result(
        actual, reference, contract_for(experiment, "torch", "float64")
    )


@pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
def test_torch_cpu_float32_meets_the_float32_contract():
    spec = RunSpec("fig09", n_topologies=3, seed=7)
    reference = Runner().run(spec)
    actual = Runner(namespace="torch", dtype="float32").run(spec)
    assert_close_result(actual, reference, contract_for("fig09", "torch", "float32"))
