"""Campaign operational metrics and per-shard telemetry folding."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.campaign import CampaignJournal, CampaignRunner, CampaignSpec
from repro.campaign import executor as executor_mod


def _campaign(n=6, shard_size=3, **kwargs):
    return CampaignSpec("fig07", n_topologies=n, shard_size=shard_size, seed=1,
                        **kwargs)


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("progress", False)
    return CampaignRunner(campaign_dir=tmp_path / "camp", **kwargs)


class TestMetricsFile:
    def test_metrics_json_written_next_to_manifest(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run(_campaign())
        path = runner.campaign_dir / "metrics.json"
        assert path.exists()
        assert (runner.campaign_dir / "manifest.json").exists()
        # Atomic write: no temp sibling left behind.
        assert not list(runner.campaign_dir.glob(".*tmp*"))
        metrics = json.loads(path.read_text())
        assert metrics["n_shards"] == 2
        assert metrics["shards_run"] == 2
        assert metrics["shards_from_cache"] == 0
        assert metrics["shards_retried"] == 0
        assert metrics["shards_timed_out"] == 0
        wall = metrics["shard_wall_clock_s"]
        assert wall["total"] > 0.0
        # total and mean are rounded to 6 decimals independently.
        assert wall["mean"] == pytest.approx(wall["total"] / 2, abs=1e-6)
        assert metrics["aggregate_merge_s"] >= 0.0

    def test_metrics_written_without_telemetry(self, tmp_path):
        runner = _runner(tmp_path)
        assert runner.telemetry is None
        runner.run(_campaign())
        assert (runner.campaign_dir / "metrics.json").exists()

    def test_retries_counted_across_resume(self, tmp_path, monkeypatch):
        original = executor_mod._shard_worker
        failures = {"left": 1}

        def flaky(payload):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient shard failure")
            return original(payload)

        monkeypatch.setattr(executor_mod, "_shard_worker", flaky)
        runner = _runner(tmp_path, retries=2)
        runner.run(_campaign())
        metrics = json.loads((runner.campaign_dir / "metrics.json").read_text())
        assert metrics["shards_retried"] == 1
        assert metrics["shards_timed_out"] == 0


class TestShardTelemetry:
    def test_shard_spans_folded_into_journal(self, tmp_path):
        telemetry = obs.Telemetry()
        runner = _runner(tmp_path, telemetry=telemetry)
        runner.run(_campaign())

        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        done = list(journal.completed_shards().values())
        assert len(done) == 2
        for event in done:
            summary = event["telemetry"]
            span_totals = summary["span_totals"]
            assert "campaign.shard" in span_totals
            assert span_totals["campaign.shard"]["count"] == 1
            assert summary["counters"]["rng.seeds_derived"] > 0

        counters = telemetry.counters
        assert counters["campaign.shards.completed"] == 2
        assert counters["campaign.shards.from_cache"] == 0
        # Worker counters merge into the master's additively.
        assert counters["rng.seeds_derived"] > 0
        assert telemetry.span_totals()["campaign.run"]["count"] == 1

    def test_from_cache_counted_on_rerun(self, tmp_path):
        first = _runner(tmp_path, telemetry=obs.Telemetry())
        first.run(_campaign())

        telemetry = obs.Telemetry()
        second = CampaignRunner(
            campaign_dir=tmp_path / "camp2",
            cache_dir=first.cache_dir,  # share the shard cache
            progress=False,
            telemetry=telemetry,
        )
        second.run(_campaign())
        counters = telemetry.counters
        assert counters["campaign.shards.completed"] == 2
        assert counters["campaign.shards.from_cache"] == 2
        metrics = json.loads((second.campaign_dir / "metrics.json").read_text())
        assert metrics["shards_from_cache"] == 2

    def test_shard_probe_fires_once_per_shard_under_shard_telemetry(self, tmp_path):
        telemetry = obs.Telemetry()
        seen = []

        @obs.register_probe("shard")
        def sampler(shard_obs, **context):
            seen.append((shard_obs, context))
            shard_obs.count("probe.shard")

        try:
            runner = _runner(tmp_path, telemetry=telemetry)  # jobs=1: inline
            runner.run(_campaign())
        finally:
            obs.unregister_probe(sampler)

        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        done = journal.completed_shards()
        assert sorted(context["shard"] for _, context in seen) == sorted(done)
        for shard_obs, context in seen:
            assert isinstance(shard_obs, obs.Telemetry)
            assert shard_obs is not telemetry  # the per-shard telemetry
            event = done[context["shard"]]
            assert context["source"] == event["source"] == "computed"
            assert context["n_accepted"] == event["n_accepted"]
            assert event["telemetry"]["counters"]["probe.shard"] == 1
        assert telemetry.counters["probe.shard"] == len(done)

    def test_untraced_journal_has_no_telemetry_key(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run(_campaign())
        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        for event in journal.completed_shards().values():
            assert "telemetry" not in event

    def test_telemetry_type_validated(self, tmp_path):
        with pytest.raises(TypeError, match="Telemetry"):
            CampaignRunner(campaign_dir=tmp_path / "c", telemetry=object())

    def test_aggregates_identical_with_and_without_telemetry(self, tmp_path):
        plain = CampaignRunner(campaign_dir=tmp_path / "plain", progress=False)
        traced = CampaignRunner(
            campaign_dir=tmp_path / "traced",
            progress=False,
            telemetry=obs.Telemetry(),
        )
        result_plain = plain.run(_campaign())
        result_traced = traced.run(_campaign())
        cell_plain, cell_traced = result_plain.cells[0], result_traced.cells[0]
        assert set(cell_plain.series) == set(cell_traced.series)
        for name in cell_plain.series:
            assert cell_plain.series[name].state() == cell_traced.series[name].state()
