"""Campaign-scale benchmarks: shard overhead and crash-resume at 10k+ topologies.

Opt-in like every benchmark (``python -m pytest benchmarks/``); the
``benchsmoke``-marked tests run in the CI smoke job:

* ``test_campaign_shard_overhead_smoke`` -- the sharding claim: driving a
  fig15-style CDF sweep of 10240 topologies through the campaign layer
  (10 shards, journal, streaming accumulators, npz shard cache) costs
  < 10% wall-clock over the monolithic batched run it decomposes, and
  reports the bit-identical exact mean.
* ``test_campaign_sigkill_resume_at_scale`` -- the durability claim: a
  10240-topology campaign killed with SIGKILL mid-flight resumes from its
  journal + shard cache, never re-executes a completed shard, and reports
  aggregates bit-identical to an uninterrupted run.

Timings go to ``$CAMPAIGN_BENCH_JSON`` (default ``campaign_timings.json``)
so CI can upload them as artifacts.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Runner, RunSpec
from repro.campaign import CampaignResult, CampaignRunner, CampaignSpec

_EXPERIMENT = "fig07"
_TOPOLOGIES = 10240
_SHARD_SIZE = 1024
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _write_timings(timings: dict, suffix: str = "") -> Path:
    out = Path(os.environ.get("CAMPAIGN_BENCH_JSON", "campaign_timings.json"))
    if suffix:
        out = out.with_name(out.stem + suffix + out.suffix)
    out.write_text(json.dumps(timings, indent=2) + "\n")
    return out


@pytest.mark.benchsmoke
def test_campaign_shard_overhead_smoke(tmp_path):
    spec = RunSpec(_EXPERIMENT, n_topologies=_TOPOLOGIES, seed=0)
    start = time.perf_counter()
    mono = Runner().run(spec)
    mono_s = time.perf_counter() - start

    campaign = CampaignSpec(
        _EXPERIMENT, n_topologies=_TOPOLOGIES, shard_size=_SHARD_SIZE, seed=0
    )
    start = time.perf_counter()
    result = CampaignRunner(tmp_path / "camp", jobs=1, progress=False).run(campaign)
    campaign_s = time.perf_counter() - start

    # The decomposition is exact: the campaign's streamed mean is the one
    # correctly-rounded mean of the monolithic run's samples.
    cell = result.cells[0]
    for name, flat in mono.series.items():
        flat = np.asarray(flat, dtype=float).ravel()
        assert cell.series[name].count == flat.size
        assert cell.series[name].mean == math.fsum(flat.tolist()) / flat.size

    overhead = campaign_s / mono_s - 1.0
    timings = {
        "experiment": _EXPERIMENT,
        "n_topologies": _TOPOLOGIES,
        "shard_size": _SHARD_SIZE,
        "n_shards": campaign.n_shards,
        "monolithic_seconds": mono_s,
        "campaign_seconds": campaign_s,
        "shard_overhead": overhead,
        "exact_mean_match": True,
    }
    out = _write_timings(timings)
    print(
        f"\n{_EXPERIMENT} x{_TOPOLOGIES}: monolithic {mono_s:.2f}s, "
        f"campaign {campaign_s:.2f}s ({campaign.n_shards} shards), "
        f"overhead {100 * overhead:.1f}% -> {out}"
    )
    assert overhead < 0.10, (
        f"campaign layer added {100 * overhead:.1f}% over the monolithic run"
    )


@pytest.mark.benchsmoke
def test_campaign_sigkill_resume_at_scale(tmp_path):
    campaign_dir = tmp_path / "campaign"
    shard_size = 512  # 20 shards: plenty of journal entries to interrupt
    argv = [
        sys.executable,
        "-m",
        "repro.experiments",
        "campaign",
        _EXPERIMENT,
        "--campaign-dir",
        str(campaign_dir),
        "--topologies",
        str(_TOPOLOGIES),
        "--shard-size",
        str(shard_size),
        "--jobs",
        "1",
    ]
    env = dict(os.environ, PYTHONPATH=_SRC)
    journal = campaign_dir / "journal.jsonl"

    def done_keys():
        if not journal.exists():
            return []
        keys = []
        for line in journal.read_text().splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                break
            if event["event"] == "shard_done":
                keys.append(event["shard"])
        return keys

    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + 300.0
    try:
        while len(done_keys()) < 3:
            assert time.monotonic() < deadline, "campaign produced no shards"
            assert proc.poll() is None, "campaign finished before the kill"
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    before_kill = done_keys()

    start = time.perf_counter()
    completed = subprocess.run(
        argv + ["--resume"], env=env, capture_output=True, text=True, timeout=600
    )
    resume_s = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr

    final = done_keys()
    assert len(final) == len(set(final)) == -(-_TOPOLOGIES // shard_size)
    for key in before_kill:
        assert final.count(key) == 1, f"completed shard {key} was re-executed"

    clean = CampaignRunner(tmp_path / "clean", jobs=1, progress=False).run(
        CampaignSpec(_EXPERIMENT, n_topologies=_TOPOLOGIES, shard_size=shard_size)
    )
    resumed = CampaignResult.load(campaign_dir / "result.json")
    assert resumed.aggregates_equal(clean)
    assert resumed.notes["n_resumed"] == len(before_kill)
    out = _write_timings(
        {
            "experiment": _EXPERIMENT,
            "n_topologies": _TOPOLOGIES,
            "shard_size": shard_size,
            "shards_before_kill": len(before_kill),
            "resume_seconds": resume_s,
            "aggregates_equal": True,
        },
        suffix="-resume",
    )
    print(
        f"\nSIGKILL after {len(before_kill)} shards; resume finished the "
        f"remaining {len(final) - len(before_kill)} in {resume_s:.2f}s -> {out}"
    )
