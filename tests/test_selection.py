"""DRR client selection tests (paper §3.2.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import (
    BatchDeficitRoundRobin,
    DeficitRoundRobin,
    SelectionOutcome,
    select_clients_for_antennas,
)
from repro.core.tagging import TagTable


class TestDrrPick:
    def test_largest_deficit_wins(self):
        drr = DeficitRoundRobin(3)
        drr.settle([0], [1, 2])  # 0 pays, 1 and 2 accrue
        assert drr.pick([0, 1, 2]) in (1, 2)

    def test_tie_breaks_to_lowest_index(self):
        drr = DeficitRoundRobin(3)
        assert drr.pick([2, 1]) == 1

    def test_empty_candidates(self):
        assert DeficitRoundRobin(2).pick([]) is None

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(0)

    def test_pick_eligible_prefers_primary_then_falls_back(self):
        drr = DeficitRoundRobin(4)
        drr.settle([1], [0, 2, 3])  # 1 pays: 0, 2, 3 lead
        primary = np.array([False, True, False, False])
        any_backlog = np.array([True, True, False, True])
        assert drr.pick_eligible([0, 1, 2, 3], primary, any_backlog) == 1
        assert drr.pick_eligible([0, 2, 3], primary, any_backlog) == 0
        assert drr.pick_eligible([2], primary, any_backlog) is None

    def test_batch_pick_eligible_mirrors_scalar(self):
        rng = np.random.default_rng(7)
        n_items, n_clients = 16, 5
        candidates = rng.random((n_items, n_clients)) < 0.7
        primary = rng.random((n_items, n_clients)) < 0.3
        any_backlog = primary | (rng.random((n_items, n_clients)) < 0.5)
        picks = BatchDeficitRoundRobin(n_items, n_clients).pick_eligible(
            candidates, primary, any_backlog
        )
        for b in range(n_items):
            scalar = DeficitRoundRobin(n_clients).pick_eligible(
                np.flatnonzero(candidates[b]), primary[b], any_backlog[b]
            )
            assert picks[b] == (-1 if scalar is None else scalar)


class TestDrrSettle:
    def test_paper_update_rule(self):
        # n=2 streams served, m=2 backlogged losers: losers gain nT/m = 1 each.
        drr = DeficitRoundRobin(4)
        drr.settle([0, 1], [2, 3], txop_units=1.0)
        np.testing.assert_allclose(drr.counters, [-1.0, -1.0, 1.0, 1.0])

    def test_counter_conservation(self):
        drr = DeficitRoundRobin(5)
        drr.settle([0, 1, 2], [3, 4], txop_units=2.0)
        assert drr.counters.sum() == pytest.approx(0.0)

    def test_no_losers_no_credit(self):
        drr = DeficitRoundRobin(2)
        drr.settle([0, 1], [], txop_units=1.0)
        np.testing.assert_allclose(drr.counters, [-1.0, -1.0])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(3).settle([0], [0, 1])

    def test_credit_adds_waiting_airtime(self):
        drr = DeficitRoundRobin(3)
        drr.credit([0, 2], txop_units=1.5)
        np.testing.assert_allclose(drr.counters, [1.5, 0.0, 1.5])
        drr.credit([], txop_units=1.0)  # no clients, no change
        np.testing.assert_allclose(drr.counters, [1.5, 0.0, 1.5])

    def test_long_run_fairness(self):
        # Two clients alternate single-stream service: counters stay bounded
        # and both get half the service.
        drr = DeficitRoundRobin(2)
        served = [0, 0]
        for __ in range(200):
            pick = drr.pick([0, 1])
            served[pick] += 1
            drr.settle([pick], [1 - pick])
        assert abs(served[0] - served[1]) <= 1
        assert np.max(np.abs(drr.counters)) < 5.0

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=50, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_fairness_property(self, n_clients, rounds):
        drr = DeficitRoundRobin(n_clients)
        counts = np.zeros(n_clients)
        for __ in range(rounds):
            pick = drr.pick(range(n_clients))
            counts[pick] += 1
            drr.settle([pick], [c for c in range(n_clients) if c != pick])
        assert counts.max() - counts.min() <= 2


class TestAntennaSpecificSelection:
    RSSI = np.array(
        [
            [-50.0, -60.0, -70.0, -80.0],
            [-80.0, -50.0, -60.0, -70.0],
            [-70.0, -80.0, -50.0, -60.0],
            [-60.0, -70.0, -80.0, -50.0],
        ]
    )

    def test_one_client_per_antenna(self):
        tags = TagTable.from_rssi(self.RSSI, tag_width=2)
        drr = DeficitRoundRobin(4)
        outcome = select_clients_for_antennas([0, 1, 2, 3], tags, drr, range(4))
        assert len(outcome.clients) == len(set(outcome.clients))
        assert len(outcome.antenna_client_pairs) == 4

    def test_respects_tags(self):
        tags = TagTable.from_rssi(self.RSSI, tag_width=2)
        drr = DeficitRoundRobin(4)
        outcome = select_clients_for_antennas([1], tags, drr, range(4))
        assert outcome.clients[0] in (0, 1)  # only clients tagged to antenna 1

    def test_respects_backlog(self):
        tags = TagTable.from_rssi(self.RSSI, tag_width=2)
        drr = DeficitRoundRobin(4)
        outcome = select_clients_for_antennas([0, 1], tags, drr, [1])
        assert outcome.clients == [1]

    def test_unmatched_antenna_skipped(self):
        # Antenna 3 has tags from clients 2 and 3 only; if both are taken by
        # earlier antennas the antenna stays unpaired.
        tags = TagTable.from_rssi(self.RSSI, tag_width=2)
        drr = DeficitRoundRobin(4)
        outcome = select_clients_for_antennas([2, 3], tags, drr, [2, 3])
        assert len(outcome.antenna_client_pairs) == 2

    def test_deficit_steers_choice(self):
        tags = TagTable.from_rssi(self.RSSI, tag_width=2)
        drr = DeficitRoundRobin(4)
        drr.settle([0], [1, 2, 3])  # client 0 already served
        outcome = select_clients_for_antennas([0], tags, drr, range(4))
        # Antenna 0's tagged clients are 0 and 3; 3 now has higher deficit.
        assert outcome.clients == [3]

    def test_outcome_accessors(self):
        outcome = SelectionOutcome(antenna_client_pairs=[(2, 1), (0, 3)])
        assert outcome.antennas == [2, 0]
        assert outcome.clients == [1, 3]
