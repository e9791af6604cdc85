"""The precoder zoo as a registry.

Every precoder shares one signature::

    precoder(h, per_antenna_power_mw, noise_mw) -> v   # (n_antennas, n_streams)

replacing the if/elif string dispatch that used to live in
``repro.experiments.common.capacity_for``.  Unknown names raise
:class:`~repro.api.registry.UnknownNameError` listing every registered
precoder.

A second registry, ``BATCH_PRECODERS``, holds *batched* implementations
with the same signature over stacked channels ``(batch, n_clients,
n_antennas)``.  :func:`precoder_matrix_batch` prefers the batched
implementation and falls back to mapping the scalar one over the stack --
so every registered precoder works on the Runner's batched path, and both
paths are bit-identical per item (iterative solvers like WMMSE simply run
item-at-a-time inside the batch call).
"""

from __future__ import annotations

import numpy as np

from ..core import batch as core_batch
from ..core.naive import naive_scaled_precoder
from ..core.optimal import full_optimal_precoder, optimal_power_allocation
from ..core.power_balance import power_balanced_precoder
from ..core.wmmse import wmmse_precoder
from ..core.zfbf import zfbf_equal_power
from ..phy.capacity import stream_sinrs, sum_capacity_bps_hz
from .. import xp as xpmod
from .registry import BATCH_PRECODERS, PRECODERS, register_batch_precoder, register_precoder


@register_precoder("naive")
def naive(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """The paper's baseline: ZFBF globally scaled to the per-antenna cap."""
    return naive_scaled_precoder(h, p)


@register_precoder("balanced")
def balanced(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """MIDAS power-balanced precoding (§3.1)."""
    return power_balanced_precoder(h, p, noise).v


@register_precoder("total_power")
def total_power(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Equal-split ZFBF under a *total* power budget only (the Fig 3
    reference, ignoring the per-antenna repair)."""
    return zfbf_equal_power(h, h.shape[1] * p)


@register_precoder("optimal_zf")
def optimal_zf(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Convex-optimal per-stream power over ZFBF directions."""
    return optimal_power_allocation(h, p, noise).v


@register_precoder("wmmse")
def wmmse(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """WMMSE iterative precoder under per-antenna constraints."""
    return wmmse_precoder(h, p, noise).v


@register_precoder("full_optimal")
def full_optimal(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Full numerical optimum (slow; Fig 11's comparator)."""
    return full_optimal_precoder(h, p, noise).v


@register_batch_precoder("naive")
def naive_batch(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Stacked baseline: batched ZFBF globally scaled per item."""
    return core_batch.naive_scaled_precoder(h, p)


@register_batch_precoder("balanced")
def balanced_batch(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Stacked MIDAS power balancing (masked iteration, bit-identical)."""
    return core_batch.power_balanced_precoder(h, p, noise).v


@register_batch_precoder("total_power")
def total_power_batch(h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Stacked equal-split ZFBF under the total budget only."""
    return core_batch.zfbf_equal_power(h, h.shape[-1] * p)


def precoder_matrix(name: str, h: np.ndarray, p: float, noise: float) -> np.ndarray:
    """Precoding matrix of the registered precoder ``name``."""
    return PRECODERS.get(name)(h, p, noise)


def precoder_matrix_batch(
    name: str, h: np.ndarray, p: float, noise: float
) -> np.ndarray:
    """Stacked precoding matrices ``(batch, n_antennas, n_streams)``.

    Uses the registered batched implementation when one exists, otherwise
    maps the scalar precoder over the stack (bit-identical either way, by
    the batched-precoder contract).

    This is a :mod:`repro.xp` compute boundary: the stack is transferred to
    the *active* namespace before the solve (the identity on the default
    NumPy/float64 configuration), so ``Runner(namespace="torch")`` runs
    the registered batched solvers on torch without any experiment changes.
    Scalar fallbacks (iterative solvers without a batched form) always run
    on the host in float64; their results are transferred afterwards.
    """
    return _precode(name, xpmod.to_device(h, xpmod.active().complex_dtype), p, noise)


def _precode(name: str, h, p: float, noise: float):
    """:func:`precoder_matrix_batch` on a stack already on the active
    namespace."""
    if h.ndim < 3:
        raise ValueError(
            f"precoder_matrix_batch expects a stacked channel; got {tuple(h.shape)}"
        )
    if name in BATCH_PRECODERS:
        return BATCH_PRECODERS.get(name)(h, p, noise)
    fn = PRECODERS.get(name)  # raises UnknownNameError with the full list
    stacked = np.stack([fn(item, p, noise) for item in xpmod.to_numpy(h)])
    return xpmod.to_device(stacked, xpmod.active().complex_dtype)


def capacity_for(scenario, h: np.ndarray, precoder: str) -> float:
    """Sum capacity of one channel snapshot under a registered precoder."""
    radio = scenario.radio
    v = precoder_matrix(precoder, h, radio.per_antenna_power_mw, radio.noise_mw)
    return sum_capacity_bps_hz(stream_sinrs(h, v, radio.noise_mw))


def capacity_for_batch(scenario, h: np.ndarray, precoder: str) -> np.ndarray:
    """Per-item sum capacities ``(batch,)`` of a stacked channel snapshot.

    Bit-identical per item to :func:`capacity_for` on the matching slice
    (on the exact NumPy/float64 namespace).  The precode + SINR + capacity
    chain runs on the active :mod:`repro.xp` namespace; the result always
    comes back as a host NumPy array, so experiment ``finalize`` hooks stay
    backend-agnostic.
    """
    radio = scenario.radio
    h = xpmod.to_device(h, xpmod.active().complex_dtype)
    v = _precode(precoder, h, radio.per_antenna_power_mw, radio.noise_mw)
    return xpmod.to_numpy(sum_capacity_bps_hz(stream_sinrs(h, v, radio.noise_mw)))
