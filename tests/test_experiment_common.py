"""Experiment plumbing tests (common helpers)."""

import numpy as np
import pytest

from helpers import sweep_topologies
from repro.experiments.common import (
    ExperimentResult,
    capacity_for,
    channel_for,
    greedy_siso_snrs,
)
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


@pytest.fixture(scope="module")
def scenario():
    return single_ap_scenario(office_b(), AntennaMode.DAS, seed=2)


class TestCapacityFor:
    def test_known_precoders(self, scenario):
        h = channel_for(scenario, 2).channel_matrix()
        for name in ("naive", "balanced", "total_power"):
            assert capacity_for(scenario, h, name) > 0

    def test_total_power_upper_bounds_naive(self, scenario):
        h = channel_for(scenario, 2).channel_matrix()
        assert capacity_for(scenario, h, "total_power") >= capacity_for(
            scenario, h, "naive"
        )

    def test_unknown_precoder_rejected(self, scenario):
        h = channel_for(scenario, 2).channel_matrix()
        with pytest.raises(ValueError):
            capacity_for(scenario, h, "magic")


class TestSweep:
    def test_collects_requested_count(self):
        results = sweep_topologies(5, seed=0, build=lambda s: {"seed": s})
        assert len(results) == 5

    def test_seeds_are_stable(self):
        a = sweep_topologies(3, seed=1, build=lambda s: {"seed": s})
        b = sweep_topologies(3, seed=1, build=lambda s: {"seed": s})
        assert [r["seed"] for r in a] == [r["seed"] for r in b]

    def test_rejections_are_skipped(self):
        counter = {"n": 0}

        def build(seed):
            counter["n"] += 1
            return None if counter["n"] % 2 else {"ok": True}

        results = sweep_topologies(4, seed=0, build=build)
        assert len(results) == 4
        assert counter["n"] == 8

    def test_always_rejecting_raises(self):
        with pytest.raises(RuntimeError):
            sweep_topologies(2, seed=0, build=lambda s: None)

    def test_zero_topologies_rejected(self):
        with pytest.raises(ValueError):
            sweep_topologies(0, seed=0, build=lambda s: {})


class TestGreedySiso:
    def test_returns_one_snr_per_client(self, scenario):
        model = channel_for(scenario, 3)
        snrs = greedy_siso_snrs(model)
        assert len(snrs) == scenario.deployment.n_clients

    def test_greedy_order_descending(self, scenario):
        model = channel_for(scenario, 3)
        snrs = greedy_siso_snrs(model)
        assert np.all(np.diff(snrs) <= 1e-9)

    def test_unique_antennas_used(self, scenario):
        # The greedy mapping excludes used antennas: each client's value must
        # come from a distinct antenna, so it cannot exceed the raw best map.
        model = channel_for(scenario, 3)
        raw_best = model.snr_db_map(scenario.deployment.client_positions).max()
        assert greedy_siso_snrs(model)[0] == pytest.approx(raw_best)


class TestExperimentResult:
    def test_series_required_for_accessors(self):
        result = ExperimentResult(
            name="t", description="d", series={"a": np.array([1.0, 2.0])}
        )
        assert result.median("a") == 1.5
        with pytest.raises(KeyError):
            result.median("missing")
