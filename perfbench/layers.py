"""Per-layer metrics of a traced run, the self-checks on them, and the
profile table.

The sources are the :class:`tracer.Tracer` statistics (calls, inclusive
and self time of every wrapped ``repro`` function) and the counters and
span totals that ``repro.obs`` already records.  Which end-to-end metric
each layer should move, on which workload:

* ``startup``  -- ``setup_s`` on every workload.
* ``api``      -- cache writes move ``wall_s`` on ``campaign``; cache
  reads move ``resume_s``.
* ``rng``/``topology``/``channel`` -- ``capacity_sweep`` and
  ``campaign``; ``topology`` also ``round_engine`` (rejection sampling).
* ``core``/``sim`` -- ``loaded_cell`` and ``round_engine``; flat on
  ``capacity_sweep``.
* ``traffic``  -- ``loaded_cell`` only.
* ``campaign`` -- ``campaign`` only.
"""

from __future__ import annotations

import re
import statistics

from tracer import layer_of

RUNNER_RUN = "repro.api.runner:Runner.run"
RUN_WINDOW = "repro.api.runner:Runner.run_window"
CACHE_WRITE = "repro.api.result:RunResult.save"
CACHE_READ = "repro.api.result:RunResult.load"
SPAWN = "repro.rng:spawn"
SCENARIO = "repro.topology.scenarios:Scenario.__init__"
CHANNEL_BUILD = "repro.channel.batch:ChannelBatch.__init__"
CHANNEL_MATRICES = "repro.channel.batch:ChannelBatch.channel_matrices"
CROSS_POWER = "repro.channel.batch:ChannelBatch.antenna_cross_power_dbm"
CHANNEL_ADVANCE = "repro.channel.batch:ChannelBatch.advance"
BALANCED = "repro.core.batch:power_balanced_precoder"
NAIVE = "repro.core.batch:naive_scaled_precoder"
WATERFILL = "repro.core.batch:reverse_waterfill"
ZFBF = "repro.core.batch:zfbf_directions"
OVERHEAR = "repro.sim.batch:RoundBasedEvaluatorBatch.mutual_overhear_mask"
TRAFFIC_ROUND = "repro.traffic.state:TrafficState.end_round"
TRAFFIC_BURST = "repro.traffic.state:TrafficState.serve_burst"
POOL_WAIT = "repro.campaign.executor:wait"
SHARD = "repro.campaign.executor:_shard_worker"
JOURNAL_MODULE = "repro.campaign.journal"


def _stack_items(args, kwargs) -> int:
    """Items in the channel stack a batched precoder receives."""
    h = args[0] if args else kwargs["h"]
    return h.shape[0] if getattr(h, "ndim", 0) == 3 else 1


#: Wrapped functions whose item count the tracer records, from their
#: arguments.
ITEM_COUNTS = {
    CHANNEL_BUILD: lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["deployments"]),
    BALANCED: _stack_items,
    NAIVE: _stack_items,
}

ALL = ("capacity_sweep", "round_engine", "loaded_cell", "campaign")
RUNNER_WORKLOADS = ("capacity_sweep", "round_engine", "loaded_cell")
ENGINE_WORKLOADS = ("round_engine", "loaded_cell")

#: Each metric source and the workloads on which its layer does work.  A
#: source that records no call there fails the traced run: a renamed
#: function or a call site the tracer missed shows instead of reading 0.
EXPECTED_CALLS = {
    RUNNER_RUN: RUNNER_WORKLOADS,
    RUN_WINDOW: ("campaign",),
    CACHE_WRITE: ALL,
    CACHE_READ: RUNNER_WORKLOADS,
    SPAWN: ALL,
    SCENARIO: ALL,
    CHANNEL_BUILD: ALL,
    CHANNEL_MATRICES: ALL,
    CROSS_POWER: ENGINE_WORKLOADS,
    CHANNEL_ADVANCE: ENGINE_WORKLOADS,
    BALANCED: ALL,
    NAIVE: ALL,
    WATERFILL: ENGINE_WORKLOADS,
    ZFBF: ALL,
    OVERHEAR: ("round_engine",),
    TRAFFIC_ROUND: ("loaded_cell",),
    TRAFFIC_BURST: ("loaded_cell",),
    SHARD: ("campaign",),
}

#: Engine phase spans recorded by ``repro.sim``, reported as ``sim.<phase>_s``.
SIM_PHASES = ("schedule", "precode", "score", "traffic", "channel_advance")

#: Layers reported with their own ``<layer>.self_s``; the rest of
#: ``repro``'s small helper packages are summed into ``other.self_s``.
SELF_LAYERS = (
    "api", "experiments", "rng", "topology", "channel", "core", "phy",
    "sim", "assoc", "traffic", "xp", "analysis", "io", "campaign",
)

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    "startup.import_s": "s",
    "startup.scipy_import_s": "s",
    "api.runner_self_s": "s",
    "api.finalize_s": "s",
    "api.cache_write_s": "s",
    "api.cache_read_s": "s",
    "api.cache_bytes": "bytes",
    "rng.spawn_calls": "count",
    "rng.spawn_s": "s",
    "rng.generators_spawned": "count",
    "topology.scenarios_built": "count",
    "topology.accept_ratio": "ratio",
    "channel.batches": "count",
    "channel.items": "count",
    "channel.build_s": "s",
    "channel.matrices_s": "s",
    "channel.cross_power_s": "s",
    "channel.advance_s": "s",
    "core.precoder_calls": "count",
    "core.items_per_call": "count",
    "core.waterfill_calls": "count",
    "core.waterfill_s": "s",
    "core.zfbf_s": "s",
    "phy.calls": "count",
    "sim.overhear_gate_s": "s",
    "sim.rounds": "count",
    **{f"sim.{phase}_s": "s" for phase in SIM_PHASES},
    "traffic.rounds": "count",
    "traffic.bursts": "count",
    "xp.to_device_calls": "count",
    "xp.to_device_bytes": "bytes",
    "campaign.shards": "count",
    "campaign.from_cache_ratio": "ratio",
    "campaign.journal_s": "s",
    "campaign.wait_s": "s",
    "campaign.retried": "count",
    **{
        ("core.precoder_self_s" if layer == "core" else f"{layer}.self_s"): "s"
        for layer in SELF_LAYERS
    },
    "other.self_s": "s",
    "trace.self_coverage": "ratio",
    "trace.overhead_s": "s",
}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def self_metric(layer: str) -> str:
    """The per-layer metric holding ``layer``'s self time."""
    if layer == "core":
        return "core.precoder_self_s"
    return f"{layer}.self_s" if layer in SELF_LAYERS else "other.self_s"


def layer_totals(stats: dict) -> dict[str, list]:
    """``{layer: [calls, self_s]}`` summed over wrapped functions."""
    totals: dict[str, list] = {}
    for key, stat in stats.items():
        total = totals.setdefault(layer_of(key), [0, 0.0])
        total[0] += stat[0]
        total[1] += stat[2]
    return totals


def rep_metrics(stats, master_stats, counters, span_totals, traced_s, extra) -> dict:
    """Per-layer metrics of one traced repetition.

    ``stats`` covers every process (campaign workers included),
    ``master_stats`` the benchmark process alone, whose self times must
    cover its ``traced_s`` of wall time.  ``extra`` carries what the run
    measured itself: accepted topologies, cache bytes, the resumed
    campaign's from-cache ratio.
    """
    zero = [0, 0.0, 0.0, 0]

    def calls(*keys):
        return sum(stats.get(k, zero)[0] for k in keys)

    def inclusive(*keys):
        return sum(stats.get(k, zero)[1] for k in keys)

    def items(*keys):
        return sum(stats.get(k, zero)[3] for k in keys)

    def span_s(name):
        return span_totals.get(name, {}).get("total_us", 0.0) / 1e6

    seeds = counters.get("rng.seeds_derived", 0)
    precoder_calls = calls(BALANCED, NAIVE)
    metrics = {
        "api.runner_self_s": sum(
            s[2] for k, s in stats.items() if k.startswith("repro.api.runner:")
        ),
        "api.finalize_s": sum(s[1] for k, s in stats.items() if k.endswith(":finalize")),
        "api.cache_write_s": inclusive(CACHE_WRITE),
        "api.cache_read_s": inclusive(CACHE_READ),
        "api.cache_bytes": extra["cache_bytes"],
        "rng.spawn_calls": calls(SPAWN),
        "rng.spawn_s": inclusive(SPAWN),
        "rng.generators_spawned": counters.get("rng.generators_spawned", 0),
        "topology.scenarios_built": calls(SCENARIO),
        "topology.accept_ratio": extra["accepted"] / seeds if seeds else 0.0,
        "channel.batches": calls(CHANNEL_BUILD),
        "channel.items": items(CHANNEL_BUILD),
        "channel.build_s": inclusive(CHANNEL_BUILD),
        "channel.matrices_s": inclusive(CHANNEL_MATRICES),
        "channel.cross_power_s": inclusive(CROSS_POWER),
        "channel.advance_s": inclusive(CHANNEL_ADVANCE),
        "core.precoder_calls": precoder_calls,
        "core.items_per_call": items(BALANCED, NAIVE) / precoder_calls if precoder_calls else 0.0,
        "core.waterfill_calls": calls(WATERFILL),
        "core.waterfill_s": inclusive(WATERFILL),
        "core.zfbf_s": inclusive(ZFBF),
        "phy.calls": layer_totals(stats).get("phy", [0, 0.0])[0],
        "sim.overhear_gate_s": inclusive(OVERHEAR),
        "sim.rounds": counters.get("engine.rounds", 0),
        **{f"sim.{phase}_s": span_s(phase) for phase in SIM_PHASES},
        "traffic.rounds": calls(TRAFFIC_ROUND),
        "traffic.bursts": calls(TRAFFIC_BURST),
        "xp.to_device_calls": counters.get("xp.to_device.calls", 0),
        "xp.to_device_bytes": counters.get("xp.to_device.bytes", 0),
        "campaign.shards": counters.get("campaign.shards.completed", 0),
        "campaign.from_cache_ratio": extra.get("from_cache_ratio", 0.0),
        "campaign.journal_s": sum(
            s[1] for k, s in stats.items() if k.startswith(JOURNAL_MODULE + ":")
        ),
        "campaign.wait_s": inclusive(POOL_WAIT),
        "campaign.retried": counters.get("campaign.shards.retried", 0),
        "trace.self_coverage": sum(s[2] for s in master_stats.values()) / traced_s,
    }
    for name in PER_LAYER:
        if name.endswith("self_s") and name not in metrics:
            metrics[name] = 0.0
    for layer, (_calls, self_s) in layer_totals(stats).items():
        metrics[self_metric(layer)] += self_s
    return metrics


def expected_call_problems(workload: str, stats: dict) -> list[str]:
    """Metric sources that were never wrapped, or read 0 where they work."""
    problems = []
    for key, workloads in EXPECTED_CALLS.items():
        if key not in stats:
            problems.append(f"{key} was not wrapped (renamed or removed?)")
        elif workload in workloads and stats[key][0] == 0:
            problems.append(f"{key} recorded no calls on {workload}")
    return problems


def profile_rows(stats: dict, worker_stats: dict) -> list[dict]:
    """One row per layer: self time and calls, in the benchmark process and
    in campaign pool workers, largest first."""
    rows = {}
    for where, table in (("main", stats), ("workers", worker_stats)):
        for layer, (calls, self_s) in layer_totals(table).items():
            if calls:
                row = rows.setdefault(
                    layer, {"layer": layer, "self_s": 0.0, "calls": 0, "workers_s": 0.0}
                )
                row["self_s"] += self_s
                row["calls"] += calls
                if where == "workers":
                    row["workers_s"] += self_s
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def format_profile(rows: list[dict], wall_s: float) -> str:
    """The profile table: layer, self_s, share of the traced wall time, calls."""
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}{'calls':>10}{'in workers':>12}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<12}{row['self_s']:>10.4f}{row['self_s'] / wall_s:>8.1%}"
            f"{row['calls']:>10}{row['workers_s']:>12.4f}"
        )
    total = sum(r["self_s"] - r["workers_s"] for r in rows)
    lines.append(
        f"{'main total':<12}{total:>10.4f}{total / wall_s:>8.1%}"
        f"   of {wall_s:.4f} s traced wall (measured, unscaled)"
    )
    return "\n".join(lines)


def median_metrics(reps: list[dict]) -> dict:
    """Per-metric median over the traced repetitions."""
    return {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Total and ``scipy`` import time, in seconds, from ``-X importtime``.

    The total sums the top-level imports; the ``scipy`` share sums the
    cumulative time of each outermost ``scipy`` import.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        name = name[1:]  # the separator's space; then two spaces per level
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    total = sum(cum for depth, _name, cum in entries if depth == 0)
    scipy = 0.0
    # -X importtime prints children before their parent, one level deeper.
    for i, (depth, name, cum) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy += cum
    return total, scipy
