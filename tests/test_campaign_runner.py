"""CampaignRunner: exactness vs monolithic runs, caching, resume, CLI."""

import json
import math
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.api import RunResult, Runner, RunSpec
from repro.campaign import (
    CampaignError,
    CampaignJournal,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
)
from repro.experiments.registry import main


def _quiet_runner(tmp_path, name="camp", **kwargs):
    kwargs.setdefault("progress", False)
    return CampaignRunner(campaign_dir=tmp_path / name, **kwargs)


class TestAggregateExactness:
    def test_sharded_campaign_matches_monolithic_run_exactly(self, tmp_path):
        n = 24
        campaign = CampaignSpec("fig07", n_topologies=n, shard_size=7, seed=3)
        result = _quiet_runner(tmp_path).run(campaign)
        mono = Runner().run(
            RunSpec("fig07", n_topologies=n, seed=3)
        )
        cell = result.cells[0]
        assert set(cell.series) == set(mono.series)
        assert cell.n_attempted == cell.n_accepted == n
        for name, flat in mono.series.items():
            flat = np.asarray(flat, dtype=float).ravel()
            agg = cell.series[name]
            assert agg.count == flat.size
            # Bit-exact: ExactSum makes the sharded mean equal the one
            # correctly-rounded mean of the full sample set.
            assert agg.mean == math.fsum(flat.tolist()) / flat.size
            assert agg.min == flat.min()
            assert agg.max == flat.max()
            # Sketch guarantee: within one resolution of an order statistic
            # adjacent to the median rank.
            srt = np.sort(flat)
            rank = 0.5 * (flat.size - 1)
            err = min(
                abs(agg.median - srt[math.floor(rank)]),
                abs(agg.median - srt[math.ceil(rank)]),
            )
            assert err <= campaign.sketch_resolution + 1e-12

    def test_parallel_jobs_report_identical_aggregates(self, tmp_path):
        campaign = CampaignSpec("fig07", n_topologies=12, shard_size=3, seed=1)
        serial = _quiet_runner(tmp_path, "serial", jobs=1).run(campaign)
        parallel = _quiet_runner(tmp_path, "parallel", jobs=2).run(campaign)
        assert serial.aggregates_equal(parallel)

    def test_rejecting_experiment_covers_window_not_count(self, tmp_path):
        # fig15 gates topologies on client placement: shards contribute the
        # accepted subset of their window, and n_accepted <= n_attempted.
        campaign = CampaignSpec("fig15", n_topologies=8, shard_size=4, seed=0)
        result = _quiet_runner(tmp_path).run(campaign)
        cell = result.cells[0]
        assert cell.n_attempted == 8
        assert 0 < cell.n_accepted <= 8
        for agg in cell.series.values():
            assert agg.count > 0


class TestCachingAndResume:
    def test_shared_cache_serves_second_campaign(self, tmp_path):
        campaign = CampaignSpec("fig07", n_topologies=8, shard_size=4, seed=2)
        cache = tmp_path / "shared-cache"
        first = _quiet_runner(tmp_path, "a", cache_dir=cache).run(campaign)
        assert first.notes["n_from_cache"] == 0
        second = _quiet_runner(tmp_path, "b", cache_dir=cache).run(campaign)
        assert second.notes["n_from_cache"] == second.notes["n_shards"]
        assert first.aggregates_equal(second)

    def test_campaigns_share_shards_regardless_of_total(self, tmp_path):
        # The cache key is (spec, window): a 4-topology campaign's shard is
        # the first shard of an 8-topology campaign over the same spec.
        cache = tmp_path / "shared-cache"
        small = CampaignSpec("fig07", n_topologies=4, shard_size=4, seed=2)
        big = CampaignSpec("fig07", n_topologies=8, shard_size=4, seed=2)
        _quiet_runner(tmp_path, "small", cache_dir=cache).run(small)
        result = _quiet_runner(tmp_path, "big", cache_dir=cache).run(big)
        assert result.notes["n_from_cache"] == 1

    def test_torn_shard_entries_read_once_and_recomputed(self, tmp_path, monkeypatch):
        # Torn cache entries (cut mid-header) are read once, by the Runner,
        # classified as unreadable (one warning each) and recomputed.
        campaign = CampaignSpec("fig07", n_topologies=8, shard_size=4, seed=2)
        cache = tmp_path / "shared-cache"
        clean = _quiet_runner(tmp_path, "clean", cache_dir=cache).run(campaign)
        entries = sorted(cache.iterdir())
        assert len(entries) == clean.notes["n_shards"] == 2
        for path in entries:
            path.write_bytes(path.read_bytes()[:40])

        loads = []
        original = RunResult.load.__func__

        def counting_load(cls, path):
            loads.append(Path(path).name)
            return original(cls, path)

        monkeypatch.setattr(RunResult, "load", classmethod(counting_load))
        runner = _quiet_runner(tmp_path, "torn", cache_dir=cache)
        with pytest.warns(RuntimeWarning, match="unreadable") as caught:
            torn = runner.run(campaign)
        unreadable = [w for w in caught if "unreadable" in str(w.message)]
        assert sorted(loads) == [path.name for path in entries]
        assert len(unreadable) == len(entries)
        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        assert {e["source"] for e in journal.completed_shards().values()} == {
            "computed"
        }
        assert torn.notes["n_from_cache"] == 0
        assert torn.aggregates_equal(clean)

    def test_direct_runner_hits_campaign_shard_entries(self, tmp_path):
        # A shard entry is the entry Runner.run_window itself reads and
        # writes: replaying every shard through a plain Runner is all hits.
        campaign = CampaignSpec(
            "fig07", n_topologies=8, shard_size=4, seed=5,
            axes={"environment": ["office_a", "office_b"]},
        )
        runner = _quiet_runner(tmp_path)
        runner.run(campaign)
        files = sorted(p.name for p in runner.cache_dir.iterdir())
        telemetry = obs.Telemetry()
        direct = Runner(cache_dir=runner.cache_dir, telemetry=telemetry)
        plan = campaign.shards()
        results = [
            direct.run_window(shard.spec, shard.seed_start, shard.seed_count)
            for shard in plan
        ]
        assert telemetry.counters["runner.cache.misses"] == 0
        assert telemetry.counters["runner.cache.hits"] == len(plan)
        assert all(result.from_cache for result in results)
        assert sorted(p.name for p in runner.cache_dir.iterdir()) == files

    def test_resume_completed_campaign_recomputes_nothing(self, tmp_path):
        campaign = CampaignSpec("fig07", n_topologies=8, shard_size=4, seed=0)
        runner = _quiet_runner(tmp_path)
        first = runner.run(campaign)
        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        done_before = len(journal.completed_shards())
        again = _quiet_runner(tmp_path).run(campaign, resume=True)
        assert again.notes["n_resumed"] == again.notes["n_shards"] == done_before
        assert len(journal.completed_shards()) == done_before  # nothing re-ran
        assert first.aggregates_equal(again)

    def test_second_run_without_resume_is_refused(self, tmp_path):
        campaign = CampaignSpec("fig07", n_topologies=4, shard_size=4)
        runner = _quiet_runner(tmp_path)
        runner.run(campaign)
        with pytest.raises(CampaignError, match="resume"):
            _quiet_runner(tmp_path).run(campaign)

    def test_directory_of_a_different_campaign_is_refused(self, tmp_path):
        runner = _quiet_runner(tmp_path)
        runner.run(CampaignSpec("fig07", n_topologies=4, shard_size=4))
        other = CampaignSpec("fig07", n_topologies=8, shard_size=4)
        with pytest.raises(CampaignError, match="different campaign"):
            _quiet_runner(tmp_path).run(other, resume=True)

    def test_resume_with_nothing_to_resume_warns_and_runs(self, tmp_path):
        campaign = CampaignSpec("fig07", n_topologies=4, shard_size=4)
        with pytest.warns(RuntimeWarning, match="nothing to resume"):
            result = _quiet_runner(tmp_path).run(campaign, resume=True)
        assert result.cells[0].n_accepted == 4

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(tmp_path, jobs=0)
        with pytest.raises(ValueError, match="retries"):
            CampaignRunner(tmp_path, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            CampaignRunner(tmp_path, timeout_s=0.0)

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="POSIX SIGALRM only")
    def test_inline_timeout_restores_the_callers_alarm(self, tmp_path):
        def handler(signum, frame):  # pragma: no cover - never due in the test
            raise AssertionError("the caller's alarm fired early")

        previous = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 100.0)
            campaign = CampaignSpec("fig03", n_topologies=2, shard_size=2)
            _quiet_runner(tmp_path, jobs=1, timeout_s=60).run(campaign)
            assert signal.getsignal(signal.SIGALRM) is handler
            delay, interval = signal.getitimer(signal.ITIMER_REAL)
            assert 90.0 < delay <= 100.0
            assert interval == 0.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestResultRoundTrip:
    def test_save_load_and_result_json(self, tmp_path):
        campaign = CampaignSpec(
            "fig09",
            n_topologies=4,
            shard_size=2,
            axes={"precoder": ["naive", "balanced"]},
        )
        runner = _quiet_runner(tmp_path)
        result = runner.run(campaign)
        # The runner writes result.json into the campaign dir on its own.
        on_disk = CampaignResult.load(runner.campaign_dir / "result.json")
        assert on_disk.aggregates_equal(result)
        clone = CampaignResult.from_json(result.to_json())
        assert clone.aggregates_equal(result)
        assert clone.campaign == campaign

    def test_cell_lookup(self, tmp_path):
        campaign = CampaignSpec(
            "fig09",
            n_topologies=4,
            shard_size=4,
            axes={"precoder": ["naive", "balanced"], "antenna_counts": [[2], [4]]},
        )
        result = _quiet_runner(tmp_path).run(campaign)
        cell = result.cell(precoder="naive", antenna_counts=[4])
        assert cell.coords == {"antenna_counts": [4], "precoder": "naive"}
        with pytest.raises(KeyError, match="no cell matches"):
            result.cell(precoder="wmmse")
        with pytest.raises(KeyError, match="more coordinates"):
            result.cell(precoder="naive")
        assert "midas_4x4" in result.series_names()
        assert "precoder=naive" in result.summary()

    def test_sketch_resolution_flows_into_aggregates(self, tmp_path):
        campaign = CampaignSpec(
            "fig07", n_topologies=4, shard_size=4, sketch_resolution=1 / 32
        )
        result = _quiet_runner(tmp_path).run(campaign)
        for agg in result.cells[0].series.values():
            assert agg.sketch.resolution == 1 / 32

    def test_unsupported_format_version_rejected(self):
        payload = {"format_version": 99, "campaign": {}, "cells": []}
        with pytest.raises(ValueError, match="format version"):
            CampaignResult.from_json(json.dumps(payload))


class TestCli:
    def test_campaign_subcommand_end_to_end(self, tmp_path, capsys):
        camp_dir = tmp_path / "cli-camp"
        rc = main(
            [
                "campaign",
                "fig07",
                "--campaign-dir",
                str(camp_dir),
                "--topologies",
                "6",
                "--shard-size",
                "3",
                "--quiet",
                "--out",
                str(tmp_path / "extra.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign fig07" in out
        assert "das_snr_db" in out
        result = CampaignResult.load(camp_dir / "result.json")
        extra = CampaignResult.load(tmp_path / "extra.json")
        assert result.aggregates_equal(extra)

    def test_campaign_subcommand_axes_and_resume(self, tmp_path, capsys):
        args = [
            "campaign",
            "fig09",
            "--campaign-dir",
            str(tmp_path / "cli-camp"),
            "--topologies",
            "4",
            "--shard-size",
            "2",
            "--axis",
            "precoder=naive,balanced",
            "--param",
            "antenna_counts=[2]",
            "--quiet",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "precoder=naive" in first and "precoder=balanced" in first
        assert main(args + ["--resume"]) == 0
        result = CampaignResult.load(tmp_path / "cli-camp" / "result.json")
        assert result.notes["n_resumed"] == result.notes["n_shards"]
        assert result.campaign.params == {"antenna_counts": [2]}
        assert result.campaign.axes == {"precoder": ["naive", "balanced"]}

    @pytest.mark.parametrize("subcommand", [[], ["campaign"]], ids=["run", "campaign"])
    def test_backend_flag_is_gone(self, subcommand, tmp_path, capsys):
        argv = subcommand + ["fig07", "--topologies", "2", "--backend", "loop"]
        if subcommand:
            argv += ["--campaign-dir", str(tmp_path / "c")]
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_classic_single_run_cli_still_works(self, tmp_path, capsys):
        rc = main(["fig03", "--topologies", "2", "--seed", "1"])
        assert rc == 0
        assert "fig03" in capsys.readouterr().out
