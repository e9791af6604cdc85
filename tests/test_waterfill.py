"""Reverse water-filling tests (paper eqs. 7-9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waterfill import reverse_waterfill

positive_arrays = st.lists(
    st.floats(min_value=1e-6, max_value=10.0), min_size=2, max_size=8
)
sinr_arrays = st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=8)


class TestNoViolation:
    def test_under_budget_returns_unit_weights(self):
        result = reverse_waterfill(np.array([0.2, 0.3]), np.array([10.0, 10.0]), 1.0)
        np.testing.assert_array_equal(result.weights, 1.0)
        np.testing.assert_array_equal(result.reductions_mw, 0.0)
        assert result.feasible


class TestBudgetRestoration:
    def test_exact_budget_after_reduction(self):
        q = np.array([0.9, 0.8, 0.1, 0.2])
        rho = np.array([100.0, 50.0, 10.0, 20.0])
        result = reverse_waterfill(q, rho, 1.0)
        new_row = np.sum(result.weights**2 * q)
        assert new_row == pytest.approx(1.0, rel=1e-6)

    def test_weights_within_unit_interval(self):
        q = np.array([2.0, 0.5, 0.1])
        rho = np.array([100.0, 5.0, 1.0])
        result = reverse_waterfill(q, rho, 1.0, min_weight=1e-3)
        assert np.all(result.weights > 0)
        assert np.all(result.weights <= 1.0)

    def test_min_weight_floor_respected(self):
        q = np.array([5.0, 5.0])
        rho = np.array([1.0, 1.0])
        result = reverse_waterfill(q, rho, 0.001, min_weight=0.05)
        assert np.all(result.weights >= 0.05 - 1e-12)

    def test_capped_flag_when_budget_unreachable(self):
        # Budget so small that even max cuts cannot restore it.
        q = np.array([5.0, 5.0])
        rho = np.array([1.0, 1.0])
        result = reverse_waterfill(q, rho, 1e-6, min_weight=0.1)
        assert result.capped
        assert not result.feasible

    def test_larger_elements_cut_more(self):
        # Equal SINRs: the water level cuts the big precoding value first.
        q = np.array([1.5, 0.1])
        rho = np.array([50.0, 50.0])
        result = reverse_waterfill(q, rho, 1.0)
        assert result.reductions_mw[0] > result.reductions_mw[1]

    def test_weak_streams_cut_preferentially(self):
        # Equal row power; the low-SINR stream has higher (1 + 1/rho) level.
        q = np.array([1.0, 1.0])
        rho = np.array([0.1, 100.0])
        result = reverse_waterfill(q, rho, 1.2)
        assert result.reductions_mw[0] > result.reductions_mw[1]

    def test_zero_sinr_stream_is_cut_to_the_budget_not_past_it(self):
        # A zero-SINR stream sits at ~1e12 x its power in level coordinates.
        # A bisection whose tolerance scales with that coordinate leaves
        # this row at 83.8% of its budget, the stream floored to weight 0.1;
        # the exact level puts the row on budget, and the stream keeps
        # sqrt(1 - 0.2 / 0.3) of its amplitude.
        q = np.array([0.5, 0.3])
        result = reverse_waterfill(q, np.array([20.0, 0.0]), 0.6)
        assert not result.capped
        assert np.sum(result.weights**2 * q) == pytest.approx(0.6, rel=1e-12)
        assert result.weights[0] == 1.0
        assert result.weights[1] == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)


class TestOptimality:
    def test_beats_uniform_scaling(self):
        # The KKT solution must achieve at least the rate of the naive
        # uniform scaling on the same row.
        rng = np.random.default_rng(0)
        for trial in range(20):
            q = rng.uniform(0.05, 2.0, size=4)
            rho = rng.uniform(0.5, 500.0, size=4)
            budget = 0.6 * q.sum()
            result = reverse_waterfill(q, rho, budget)
            if result.capped:
                continue
            alpha2 = budget / q.sum()
            rate_wf = np.sum(np.log2(1 + result.weights**2 * rho))
            rate_uniform = np.sum(np.log2(1 + alpha2 * rho))
            assert rate_wf >= rate_uniform - 1e-9


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0, 2.0]), 1.0)

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0]), 0.0)

    def test_bad_min_weight(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([1.0]), np.array([1.0]), 1.0, min_weight=1.0)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            reverse_waterfill(np.array([-1.0]), np.array([1.0]), 1.0)


class TestProperties:
    @given(positive_arrays, sinr_arrays, st.floats(min_value=0.1, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_budget_and_bounds_hold(self, q_list, rho_list, budget_fraction):
        n = min(len(q_list), len(rho_list))
        q = np.asarray(q_list[:n])
        rho = np.asarray(rho_list[:n])
        budget = budget_fraction * float(q.sum())
        result = reverse_waterfill(q, rho, budget)
        assert np.all(result.weights > 0)
        assert np.all(result.weights <= 1.0 + 1e-12)
        if not result.capped:
            assert np.sum(result.weights**2 * q) <= budget * (1 + 1e-6)
