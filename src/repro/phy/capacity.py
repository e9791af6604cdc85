"""SINR and Shannon-capacity computation for precoded MU-MIMO downlinks.

Implements the paper's eq. (4): with channel ``H`` (clients x antennas) and
precoder ``V`` (antennas x streams, column ``j`` = client ``j``'s stream),
the *effective channel* is ``E = H @ V`` and

    ``s_ij = |E[j, i]|^2 / No``          (power of stream i at client j)
    ``rho_j = s_jj / (1 + sum_{i != j} s_ij)``

The paper converts measured SINR directly to capacity with the Shannon
formula (§5.1); :func:`sum_capacity_bps_hz` does the same.

Every function here accepts either one matrix or a *stack* of them with
leading batch axes (``(batch, n_clients, n_antennas)`` channels paired with
``(batch, n_antennas, n_streams)`` precoders) -- the shape convention of the
batched path.  Matrix axes always trail; reductions run over the
trailing axes so a stacked call is bit-identical, slice for slice, to N
scalar calls.

All functions are namespace-generic (:mod:`repro.xp`): the governing
namespace is inferred from the inputs, so NumPy arrays compute in NumPy
(bit-identical to the pre-dispatch code) and torch tensors stay on-device.
"""

from __future__ import annotations

from ..xp import array_namespace


def effective_channel(h, v):
    """``E = H @ V``; entry ``(j, i)`` is stream ``i``'s amplitude at client ``j``.

    Accepts matching stacks (``(..., n_clients, n_antennas)`` with
    ``(..., n_antennas, n_streams)``) and matmuls them slice-wise.
    """
    xp = array_namespace(h, v)
    h = xp.asarray(h)
    v = xp.asarray(v)
    if h.ndim < 2 or v.ndim < 2:
        raise ValueError("h and v must be at least 2-D")
    if h.shape[-1] != v.shape[-2]:
        raise ValueError(
            f"antenna-dimension mismatch: h is {tuple(h.shape)}, v is {tuple(v.shape)}"
        )
    return h @ v


def sinr_matrix(h, v, noise_mw: float):
    """The paper's ``S`` matrix: ``S[..., i, j]`` = power of stream ``i``
    received at client ``j``, normalized by the noise floor."""
    if noise_mw <= 0:
        raise ValueError("noise_mw must be positive")
    xp = array_namespace(h, v)
    e = effective_channel(h, v)
    return xp.swapaxes(xp.abs(e) ** 2, -1, -2) / noise_mw


def stream_sinrs(h, v, noise_mw: float, external_interference_mw=0.0):
    """Per-client SINR ``rho_j`` under precoder ``V`` (paper eq. 4).

    ``external_interference_mw`` is extra interference power (scalar or
    per-client vector) from transmissions outside this precoding group --
    e.g. concurrent TXOPs of other APs in the network simulations.

    Stacked inputs return stacked SINRs ``(..., n_clients)``.
    """
    xp = array_namespace(h, v)
    s = sinr_matrix(h, v, noise_mw)  # (..., streams, clients)
    n_streams, n_clients = s.shape[-2], s.shape[-1]
    if n_streams != n_clients:
        raise ValueError("streams and clients must pair one-to-one for SINR")
    ext = xp.broadcast_to(
        xp.asarray(external_interference_mw, dtype=xp.float_dtype),
        tuple(s.shape[:-2]) + (n_clients,),
    )
    desired = xp.diagonal(s, axis1=-2, axis2=-1)
    # Interference from other streams at client j.
    intra = xp.sum(s, axis=-2) - desired
    return desired / (1.0 + intra + ext / noise_mw)


def sum_capacity_bps_hz(sinrs):
    """Shannon sum capacity ``sum_j log2(1 + rho_j)`` in bits/s/Hz.

    A single SINR vector returns a ``float``; a stack ``(..., n_clients)``
    returns per-item capacities of shape ``(...,)``.
    """
    xp = array_namespace(sinrs)
    rho = xp.asarray(sinrs, dtype=xp.float_dtype)
    if xp.any(rho < 0):
        raise ValueError("SINRs must be non-negative")
    if rho.ndim <= 1:
        return float(xp.sum(xp.log2(1.0 + rho)))
    return xp.sum(xp.log2(1.0 + rho), axis=-1)


def per_antenna_row_power(v):
    """Transmit power per antenna: row-wise ``sum_j |v_kj|^2`` (paper eq. 3 LHS)."""
    xp = array_namespace(v)
    v = xp.asarray(v)
    return xp.sum(xp.abs(v) ** 2, axis=-1)


def per_stream_column_power(v):
    """Transmit power per stream: column-wise ``sum_k |v_kj|^2``."""
    xp = array_namespace(v)
    v = xp.asarray(v)
    return xp.sum(xp.abs(v) ** 2, axis=-2)
