"""Aggregation helpers over multiple simulation runs."""

from __future__ import annotations

import numpy as np


def jain_fairness(per_client_throughput: np.ndarray) -> float:
    """Jain's fairness index of a per-client throughput vector.

    Raises :class:`ValueError` on an empty vector or all-zero throughput:
    the index is 0/0 there, and silently reporting a number (or NaN plus a
    ``RuntimeWarning``) hides that the run delivered nothing.
    """
    x = np.asarray(per_client_throughput, dtype=float)
    if x.size == 0:
        raise ValueError("jain_fairness() needs at least one client throughput")
    if np.all(x == 0):
        raise ValueError(
            "jain_fairness() is undefined for all-zero throughput (0/0); "
            "the run delivered no bytes, check it before asking for fairness"
        )
    return float((x.sum() ** 2) / (x.size * np.sum(x**2)))
