"""The benchmark's workloads: what each one runs, and how its outputs are checked.

Every workload runs on the batched path (``Runner(backend="vectorized")``,
which is also the ``CampaignRunner`` default).  A workload's *cold* run
computes its result and writes the on-disk cache; its *resume* runs serve
the same result back from that cache (and, for the campaign, from the
journal), so every workload measures both the write and the read path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.experiments  # noqa: F401  (the experiment modules)
from repro.api.experiments import load_builtin_experiments
from repro.api.runner import Runner
from repro.api.spec import RunSpec
from repro.campaign import CampaignRunner, CampaignSpec

#: Seed of the warm-up run, whose series medians are compared with
#: ``reference.json``.  The timed runs use the ``--seed`` given.
REFERENCE_SEED = 0

#: Relative tolerance of the reference comparison: loose enough for
#: last-digit changes from reordered floating-point sums, tight enough to
#: catch a wrong answer.
REFERENCE_RTOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def campaign_jobs() -> int:
    """Campaign pool size: two workers, never more than the machine's CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists).

    ``experiment``/``n_topologies`` define the runs; ``axes`` and
    ``shard_size`` make it a campaign.
    """

    name: str
    experiment: str
    n_topologies: int
    axes: dict | None = None
    shard_size: int = 0

    @property
    def is_campaign(self) -> bool:
        return self.axes is not None

    @property
    def cells(self) -> int:
        return math.prod(len(v) for v in self.axes.values()) if self.is_campaign else 1

    @property
    def accepted(self) -> int:
        """Accepted topology evaluations of one cold run."""
        return self.cells * self.n_topologies

    @property
    def shards(self) -> int:
        """Operations per cold run: shards for a campaign, else one run."""
        if not self.is_campaign:
            return 1
        return self.cells * math.ceil(self.n_topologies / self.shard_size)

    def spec(self, seed: int):
        """The RunSpec (or CampaignSpec) of a run with workload seed ``seed``."""
        if self.is_campaign:
            return CampaignSpec(
                self.experiment,
                n_topologies=self.n_topologies,
                shard_size=self.shard_size,
                seed=seed,
                axes=self.axes,
            )
        return RunSpec(self.experiment, n_topologies=self.n_topologies, seed=seed)

    def runner(self, cache_dir: Path, telemetry=None):
        """A fresh runner whose cache (or campaign directory) is ``cache_dir``."""
        if self.is_campaign:
            return CampaignRunner(
                cache_dir, jobs=campaign_jobs(), progress=False, telemetry=telemetry
            )
        return Runner(backend="vectorized", cache_dir=cache_dir, telemetry=telemetry)

    def run(self, runner, spec, resume: bool = False):
        """Run ``spec``; a resumed Runner run is a cache hit on the same spec."""
        if self.is_campaign:
            return runner.run(spec, resume=resume)
        return runner.run(spec)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("capacity_sweep", "fig09", 1024),
        Workload("round_engine", "fig15", 48),
        Workload("loaded_cell", "latency_vs_load", 30),
        Workload(
            "campaign", "fig09", 1024, axes={"precoder": ["naive", "balanced"]}, shard_size=64
        ),
    )
}


def load_all() -> None:
    """Register every experiment and model so runs never import lazily."""
    load_builtin_experiments()
    import repro.assoc  # noqa: F401
    import repro.mobility.models  # noqa: F401
    import repro.traffic.models  # noqa: F401


# -- output checks ---------------------------------------------------------
def series_medians(series: dict) -> dict:
    """Per-series medians; a 2-D series gives one median per column."""
    return {name: np.median(values, axis=0).tolist() for name, values in sorted(series.items())}


def campaign_medians(result) -> dict:
    """Per-cell, per-series ``[mean, sketch median]`` of a campaign result."""
    return {
        cell.label(): {name: [agg.mean, agg.median] for name, agg in sorted(cell.series.items())}
        for cell in result.cells
    }


def medians(workload: Workload, result) -> dict:
    return campaign_medians(result) if workload.is_campaign else series_medians(result.series)


def check_result(workload: Workload, result, reference: dict | None = None) -> list[str]:
    """Problems with one cold-run result; empty when it is correct.

    The accepted count must equal the requested count and every value must
    be finite, bar the overload delays of :func:`_nothing_departed`.  With
    ``reference`` (the medians recorded for
    :data:`REFERENCE_SEED`) every median must also match it.
    """
    problems = []
    if workload.is_campaign:
        for cell in result.cells:
            if cell.n_accepted != workload.n_topologies:
                problems.append(
                    f"{cell.label()}: {cell.n_accepted} accepted, want {workload.n_topologies}"
                )
            for name, agg in cell.series.items():
                finite = np.isfinite(agg.mean) and np.isfinite(agg.median)
                if agg.count != cell.n_accepted or not finite:
                    problems.append(f"{cell.label()}/{name}: {agg.count} values, mean {agg.mean}")
    else:
        for name, values in result.series.items():
            values = np.asarray(values)
            if values.shape[0] != workload.n_topologies:
                problems.append(f"{name}: {values.shape[0]} accepted, want {workload.n_topologies}")
            elif not np.array_equal(~np.isfinite(values), _nothing_departed(result.series, name)):
                problems.append(f"{name}: non-finite values")
    if reference is not None and not problems:
        problems += _compare(medians(workload, result), reference, workload.name)
    return problems


def _nothing_departed(series: dict, name: str) -> np.ndarray:
    """Where ``name`` may be non-finite: nowhere, except that a delay series
    of ``latency_vs_load`` is ``+inf`` exactly where its system's throughput
    is 0, because no packet departed there (the experiment's documented
    overload value)."""
    values = np.asarray(series[name])
    system, _, metric = name.partition("_")
    throughput = np.asarray(series.get(f"{system}_throughput_mbps", []))
    if not metric.endswith("delay_ms") or throughput.shape != values.shape:
        return np.zeros(values.shape, dtype=bool)
    return (throughput == 0) & np.isposinf(values)


def _compare(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            names = sorted(got) if isinstance(got, dict) else got
            return [f"{where}: names {names} != {sorted(want)}"]
        return [p for key in want for p in _compare(got[key], want[key], f"{where}/{key}")]
    close = np.shape(got) == np.shape(want) and np.allclose(
        got, want, rtol=REFERENCE_RTOL, atol=1e-12
    )
    if not close:
        return [f"{where}: median {got} != reference {want}"]
    return []


def same_output(workload: Workload, a, b) -> bool:
    """Whether two results of one workload are identical."""
    if workload.is_campaign:
        return a.aggregates_equal(b)
    return sorted(a.series) == sorted(b.series) and all(
        np.array_equal(a.series[k], b.series[k]) for k in a.series
    )


def check_resume(workload: Workload, cold, resumed) -> list[str]:
    """A resumed run must reproduce the cold result from the cache alone."""
    problems = []
    if not same_output(workload, cold, resumed):
        problems.append("resumed output differs from the cold output")
    if workload.is_campaign and from_cache_ratio(resumed) != 1.0:
        problems.append(f"resume recomputed shards (from_cache_ratio {from_cache_ratio(resumed)})")
    return problems


def from_cache_ratio(campaign_result) -> float:
    """Share of a campaign's shards served from the journal or the cache."""
    notes = campaign_result.notes
    return (notes["n_resumed"] + notes["n_from_cache"]) / notes["n_shards"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
