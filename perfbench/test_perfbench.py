"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import inspect
import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import layers
import numpy as np
import pytest
import workloads
from tracer import SHARD_STATS_KEY, Tracer, layer_of

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

workloads.load_all()


def _bindings():
    """Every attribute of every repro module and class, and every registry item."""
    from repro.api import registry

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        seen[name] = dict(vars(module))
        for attr, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                seen[f"{name}:{attr}"] = dict(vars(obj))
    for attr, reg in vars(registry).items():
        if isinstance(reg, registry.Registry):
            seen[f"registry:{attr}"] = dict(reg._items)
    return seen


def test_tracer_wraps_every_import_site_and_restores_on_exit():
    import repro.core.batch
    import repro.sim.batch

    before = _bindings()
    original = repro.core.batch.power_balanced_precoder
    with Tracer():
        wrapped = repro.core.batch.power_balanced_precoder
        assert wrapped is not original
        assert repro.sim.batch.batch_power_balanced_precoder is wrapped
    after = _bindings()
    assert repro.core.batch.power_balanced_precoder is original
    changed = [
        f"{where}.{attr}"
        for where, table in before.items()
        for attr, obj in table.items()
        if after[where].get(attr) is not obj
    ]
    assert changed == []


def test_tracer_counts_calls_without_changing_outputs():
    from repro.api.runner import Runner
    from repro.api.spec import RunSpec

    spec = RunSpec("fig09", n_topologies=4, seed=3)
    plain = Runner(backend="vectorized").run(spec)
    runner = Runner(backend="vectorized")
    tracer = Tracer(layers.ITEM_COUNTS)
    with tracer:
        traced = runner.run(spec)
    workload = workloads.WORKLOADS["capacity_sweep"]
    assert workloads.same_output(workload, plain, traced)
    assert tracer.stats[layers.RUNNER_RUN][0] == 1
    assert tracer.stats[layers.CHANNEL_BUILD][3] == 4 * 4  # 4 batches of 4 items
    run = tracer.stats[layers.RUNNER_RUN]
    self_total = sum(stat[2] for stat in tracer.stats.values())
    assert self_total == pytest.approx(run[1], rel=1e-6)


def test_tracer_collects_campaign_worker_stats(tmp_path):
    workload = workloads.Workload(
        "tiny", "fig09", 8, axes={"precoder": ["naive", "balanced"]}, shard_size=4
    )
    tracer = Tracer()
    with tracer:
        result = workload.run(workload.runner(tmp_path / "c"), workload.spec(1))
    assert not workloads.check_result(workload, result)
    if workloads.campaign_jobs() > 1:
        assert tracer.worker_stats[layers.RUN_WINDOW][0] == workload.shards
        assert tracer.stats[layers.POOL_WAIT][0] > 0
    assert SHARD_STATS_KEY not in (tmp_path / "c" / "journal.jsonl").read_text()


def test_metric_names_and_units_match_benchmark_json():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(layers.METRIC_NAME.fullmatch(name) for name in names)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    zero = {key: [0, 0.0, 0.0, 0] for key in layers.EXPECTED_CALLS}
    computed = layers.rep_metrics(zero, zero, {}, {}, 1.0, {"accepted": 1, "cache_bytes": 0})
    measured_apart = {"startup.import_s", "startup.scipy_import_s", "trace.overhead_s"}
    assert set(computed) | measured_apart == set(layers.PER_LAYER)


def test_every_stats_key_maps_to_a_reported_layer():
    assert layer_of("repro.channel.batch:ChannelBatch.advance") == "channel"
    assert layer_of("repro:thing") == "api"
    assert layers.self_metric("units") == "other.self_s"
    assert layers.self_metric("core") in layers.PER_LAYER


def _fake_result(workload, reference):
    """A result whose medians equal the reference: each row is the median."""
    n = workload.n_topologies
    return SimpleNamespace(
        series={name: np.repeat([np.asarray(m, dtype=float)], n, axis=0)
                for name, m in reference.items()}
    )


@pytest.mark.parametrize("name", ["capacity_sweep", "loaded_cell"])
def test_output_check_fails_on_a_perturbed_result(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    result = _fake_result(workload, reference)
    assert workloads.check_result(workload, result, reference) == []

    key = sorted(result.series)[0]
    good = result.series[key]
    result.series[key] = good * (1 + 1e-5)
    assert workloads.check_result(workload, result, reference)
    result.series[key] = good.copy()
    result.series[key][0] = np.nan
    assert workloads.check_result(workload, result)
    result.series[key] = good[1:]
    assert workloads.check_result(workload, result)
    result.series[key] = good
    assert workloads.check_resume(workload, result, _fake_result(workload, reference)) == []
    other = _fake_result(workload, reference)
    other.series[key] = good + 1e-12
    assert workloads.check_resume(workload, result, other)


def test_delay_may_be_infinite_only_where_nothing_departed():
    workload = workloads.WORKLOADS["loaded_cell"]
    result = _fake_result(workload, workloads.load_reference()["loaded_cell"])
    result.series["cas_throughput_mbps"][3, 4] = 0.0
    result.series["cas_delay_ms"][3, 4] = np.inf
    assert workloads.check_result(workload, result) == []
    result.series["cas_delay_ms"][3, 3] = np.inf
    assert workloads.check_result(workload, result)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:       500 |        900 |   scipy.optimize",
        "import time:       800 |       2000 | repro",
        "import time:        50 |         50 | json",
    ])
    total, scipy = layers.parse_importtime(stderr)
    assert total == pytest.approx(2050e-6)
    assert scipy == pytest.approx(1200e-6)


def test_speed_sampler_ticks_during_the_block_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 6 * calibrate.TICK_INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.ticks) >= 5  # entry, exit and at least three alarms
    assert 0 < sampler.spent < 6 * calibrate.TICK_INTERVAL_S
    assert sampler.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
