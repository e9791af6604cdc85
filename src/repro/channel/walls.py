"""Multi-wall indoor attenuation (COST231-style wall factor).

The paper's offices are rooms off corridors: a co-located AP reaches most
clients through several walls, while a distributed antenna is often in the
*same room* as its nearby clients.  That wall asymmetry -- not distance
alone -- is what gives a DAS its per-client "anchor" antenna, concentrates
the zero-forcing precoder's violating rows on few streams (where reverse
water-filling shines), and carves the deadzones and hidden-terminal regions
of §5.3.

Walls are modelled as an axis-aligned grid of partitions with spacing
``wall_spacing_m``; each wall crossed by the direct path adds
``wall_loss_db``.  The crossing count between two points is the number of
grid lines the segment crosses in x plus in y -- exact for axis-aligned
partitions and O(1) per link.
"""

from __future__ import annotations

import numpy as np

from ..topology import geometry

#: Average grid-line crossings per meter of random-direction path is
#: (|cos| + |sin|) averaged over angle = 4/pi per ``spacing`` meters.
MEAN_CROSSING_FACTOR = 4.0 / np.pi


def wall_crossings(points_a, points_b, spacing_m: float) -> np.ndarray:
    """Number of grid walls crossed between every pair (a_i, b_j).

    Returns an ``(len(a), len(b))`` integer array.  Points exactly on a wall
    line belong to the cell to their right/top (numpy floor semantics).

    Both inputs may carry leading batch axes (``(..., n, 2)``): the count is
    then computed per batch slice, which is how the batched path
    evaluates every topology draw in one call.
    """
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    pa = geometry.as_point_stack(points_a)
    pb = geometry.as_point_stack(points_b)
    cell_a = np.floor(pa / spacing_m).astype(int)
    cell_b = np.floor(pb / spacing_m).astype(int)
    dx = np.abs(cell_a[..., :, None, 0] - cell_b[..., None, :, 0])
    dy = np.abs(cell_a[..., :, None, 1] - cell_b[..., None, :, 1])
    return dx + dy


def wall_loss_db(
    points_a,
    points_b,
    spacing_m: float,
    loss_per_wall_db: float,
    max_walls: int = 3,
) -> np.ndarray:
    """Total wall attenuation in dB for every pair (a_i, b_j).

    The crossing count saturates at ``max_walls``: beyond a few partitions,
    indoor energy arrives via corridors, doorways and diffraction rather
    than through every wall on the straight line (the same reason COST231's
    multi-wall model is sub-linear in the wall count).
    """
    if loss_per_wall_db < 0:
        raise ValueError("loss_per_wall_db must be non-negative")
    if max_walls < 1:
        raise ValueError("max_walls must be at least 1")
    if loss_per_wall_db == 0.0:
        pa = geometry.as_point_stack(points_a)
        pb = geometry.as_point_stack(points_b)
        batch = np.broadcast_shapes(pa.shape[:-2], pb.shape[:-2])
        return np.zeros(batch + (pa.shape[-2], pb.shape[-2]))
    crossings = np.minimum(wall_crossings(points_a, points_b, spacing_m), max_walls)
    return crossings * loss_per_wall_db


def mean_wall_loss_db(
    distance_m, spacing_m: float, loss_per_wall_db: float, max_walls: int = 3
) -> np.ndarray:
    """Expected wall attenuation at a given link distance, averaged over
    random path orientation and saturated at ``max_walls``.  Used by the
    analytic range helpers (:func:`repro.channel.pathloss.coverage_range_m`)."""
    d = np.asarray(distance_m, dtype=float)
    mean_count = np.minimum(MEAN_CROSSING_FACTOR * d / spacing_m, max_walls)
    return loss_per_wall_db * mean_count
