"""The closed-form water level against the bisection oracle.

:func:`repro.core.waterfill.exact_water_level` replaces a bisection on the
water level with a sort over the ``2n`` breakpoints of the removed power.
These properties pin it over random stacks of ``n = 1..8`` streams that
include tied marginals, zero-power streams, zero-SINR streams and powers
from 1e-6 to 10 mW:

* the batched solver equals the scalar solver bit for bit, row by row;
* every solved row lands on its power budget to 1e-10 of the budget;
* where every SINR is at least 1e-2, the level matches the bisection
  oracle (``helpers.bisection_reverse_waterfill``) within the oracle's
  own stopping tolerance, and both agree on which rows are capped.

The torch case runs only where torch is installed (CI's tolerance-tier
job); there the batched solver must meet the same budget and stay within
kernel noise of the NumPy levels.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bisection_reverse_waterfill
from helpers.reference import BISECTION_RTOL
from repro.core import batch as core_batch
from repro.core.waterfill import reverse_waterfill

TORCH_MISSING = importlib.util.find_spec("torch") is None

#: Budget tolerance of a solved row, relative to the budget.
BUDGET_RTOL = 1e-10

_powers = st.one_of(
    st.just(0.0),
    st.floats(min_value=-6.0, max_value=1.0).map(lambda e: 10.0**e),
)
_sinrs = st.one_of(
    st.just(0.0),
    st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0**e),
)


@st.composite
def waterfill_stacks(draw):
    """``(q, rho, budget)``: a ``(batch, n)`` stack and one shared budget.

    Streams are drawn from a small pool of (power, SINR) pairs, so rows
    repeat pairs (tied marginals) as often as they differ.  The budget is
    a fraction of the largest row total, which puts the rows of one stack
    into the trivial, capped and solved branches alike.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    batch = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.tuples(_powers, _sinrs), min_size=1, max_size=2 * n))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=batch * n,
            max_size=batch * n,
        )
    )
    pairs = np.array([pool[i] for i in picks]).reshape(batch, n, 2)
    fraction = draw(st.floats(min_value=1e-3, max_value=1.2))
    budget = fraction * float(pairs[..., 0].sum(axis=-1).max())
    return pairs[..., 0], pairs[..., 1], budget if budget > 0 else 1e-6


def _solved(result) -> np.ndarray:
    """Rows that needed a cut and met it without the min-weight floor."""
    return np.isfinite(result.water_level) & ~result.capped


@given(waterfill_stacks())
@settings(max_examples=300, deadline=None)
def test_batched_level_equals_the_scalar_level_bit_for_bit(case):
    q, rho, budget = case
    stacked = core_batch.reverse_waterfill(q, rho, budget)
    for i in range(len(q)):
        scalar = reverse_waterfill(q[i], rho[i], budget)
        assert stacked.water_level[i] == scalar.water_level
        assert np.array_equal(stacked.weights[i], scalar.weights)
        assert np.array_equal(stacked.reductions_mw[i], scalar.reductions_mw)
        assert bool(stacked.capped[i]) == scalar.capped


@given(waterfill_stacks())
@settings(max_examples=300, deadline=None)
def test_solved_rows_land_on_the_budget(case):
    q, rho, budget = case
    result = core_batch.reverse_waterfill(q, rho, budget)
    row_power = np.sum(result.weights**2 * q, axis=-1)
    solved = _solved(result)
    assert np.all(np.abs(row_power[solved] - budget) <= BUDGET_RTOL * budget)
    assert np.all(row_power[~solved & ~result.capped] <= budget)


@given(waterfill_stacks())
@settings(max_examples=300, deadline=None)
def test_level_matches_the_bisection_oracle(case):
    q, rho, budget = case
    result = core_batch.reverse_waterfill(q, rho, budget)
    for i in range(len(q)):
        oracle = bisection_reverse_waterfill(q[i], rho[i], budget)
        assert bool(result.capped[i]) == oracle.capped
        if np.all(rho[i] >= 1e-2) and np.isfinite(oracle.water_level):
            level = result.water_level[i]
            assert abs(level - oracle.water_level) <= BISECTION_RTOL * max(
                1.0, level
            )


@pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
@given(waterfill_stacks())
@settings(max_examples=100, deadline=None)
def test_torch_levels_stay_within_kernel_noise_of_numpy(case):
    import repro.xp as xpmod

    q, rho, budget = case
    ns = xpmod.get_namespace("torch")
    reference = core_batch.reverse_waterfill(q, rho, budget)
    result = core_batch.reverse_waterfill(ns.asarray(q), ns.asarray(rho), budget)
    level = xpmod.to_numpy(result.water_level)
    weights = xpmod.to_numpy(result.weights)
    # A row on the capped boundary may fall either side under other kernels.
    solved = _solved(reference) & ~xpmod.to_numpy(result.capped)
    np.testing.assert_allclose(
        level[solved], reference.water_level[solved], rtol=1e-9
    )
    row_power = np.sum(weights**2 * q, axis=-1)
    assert np.all(np.abs(row_power[solved] - budget) <= BUDGET_RTOL * budget)
