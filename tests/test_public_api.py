"""Public API surface tests: the README quickstart must keep working."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestImportSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_importing_the_experiments_leaves_scipy_optimize_unloaded(self):
        # Only the numerical-optimum comparators need scipy.optimize; every
        # CLI call and campaign worker imports repro.experiments.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p
        )
        probe = "import sys, repro.experiments; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        scenario = repro.single_ap_scenario(
            repro.office_b(), repro.AntennaMode.DAS, seed=7
        )
        model = repro.ChannelModel(scenario.deployment, scenario.radio, seed=7)
        h = model.channel_matrix()
        p = scenario.radio.per_antenna_power_mw
        noise = scenario.radio.noise_mw

        result = repro.power_balanced_precoder(h, p, noise)
        baseline = repro.naive_scaled_precoder(h, p)

        balanced_capacity = repro.sum_capacity_bps_hz(
            repro.stream_sinrs(h, result.v, noise)
        )
        naive_capacity = repro.sum_capacity_bps_hz(
            repro.stream_sinrs(h, baseline, noise)
        )
        assert result.converged
        assert balanced_capacity > 0 and naive_capacity > 0

    def test_docstring_example_values(self):
        # The module docstring promises converged=True for seed 7.
        scenario = repro.single_ap_scenario(
            repro.office_b(), repro.AntennaMode.DAS, seed=7
        )
        model = repro.ChannelModel(scenario.deployment, scenario.radio, seed=7)
        result = repro.power_balanced_precoder(
            model.channel_matrix(),
            scenario.radio.per_antenna_power_mw,
            scenario.radio.noise_mw,
        )
        assert result.converged

    def test_cdf_helpers_exported(self):
        cdf = repro.EmpiricalCdf(np.array([1.0, 2.0, 3.0]))
        assert cdf.median == 2.0
        assert repro.median_gain([2.0], [1.0]) == 1.0

    def test_range_helpers_exported(self):
        radio = repro.RadioConfig()
        mac = repro.MacConfig()
        assert repro.coverage_range_m(radio) > 0
        assert repro.cs_range_m(radio, mac) > 0
