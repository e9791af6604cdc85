"""2-D geometry helpers for deployment generation and coverage mapping.

Positions are ``(x, y)`` coordinates in meters, stored as numpy arrays of
shape ``(n, 2)``.  All sampling functions take an explicit
:class:`numpy.random.Generator` so callers control determinism.
"""

from __future__ import annotations

import numpy as np


def as_points(points) -> np.ndarray:
    """Coerce input to a float array of shape ``(n, 2)``."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    return arr


def pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distance matrix of shape ``(len(a), len(b))``."""
    pa = as_points(a)
    pb = as_points(b)
    diff = pa[:, None, :] - pb[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def as_point_stack(points) -> np.ndarray:
    """Coerce input to a float array of shape ``(..., n, 2)``.

    Accepts a single ``(n, 2)`` point set or a batch ``(batch, n, 2)`` of
    them (any number of leading axes); used by the batched channel
    synthesis, which stacks one point set per topology draw.
    """
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.shape[-1] != 2:
        raise ValueError(f"expected (..., n, 2) points, got shape {arr.shape}")
    return arr


def stacked_pairwise_distances(a, b) -> np.ndarray:
    """Euclidean distances of shape ``(..., len(a), len(b))`` over stacks.

    Bit-identical per slice to :func:`pairwise_distances` (same subtract /
    square / sum / sqrt sequence), broadcasting any leading batch axes.
    """
    pa = as_point_stack(a)
    pb = as_point_stack(b)
    diff = pa[..., :, None, :] - pb[..., None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def min_pairwise_distance(points) -> float:
    """Smallest distance between any two distinct points (inf for < 2 points)."""
    pts = as_points(points)
    if len(pts) < 2:
        return float("inf")
    dists = pairwise_distances(pts, pts)
    np.fill_diagonal(dists, np.inf)
    return float(dists.min())


def random_point_in_disk(
    rng: np.random.Generator, center, radius: float, count: int = 1
) -> np.ndarray:
    """Uniform random points inside a disk, shape ``(count, 2)``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return random_point_in_annulus(rng, center, 0.0, radius, count)


def random_point_in_annulus(
    rng: np.random.Generator, center, r_min: float, r_max: float, count: int = 1
) -> np.ndarray:
    """Uniform random points in the annulus ``r_min <= r <= r_max`` around ``center``."""
    if not 0.0 <= r_min <= r_max:
        raise ValueError("need 0 <= r_min <= r_max")
    cx, cy = np.asarray(center, dtype=float)
    # Area-uniform radius: r = sqrt(u * (r_max^2 - r_min^2) + r_min^2).
    u = rng.random(count)
    radii = np.sqrt(u * (r_max**2 - r_min**2) + r_min**2)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack((cx + radii * np.cos(angles), cy + radii * np.sin(angles)))


def random_point_in_rect(
    rng: np.random.Generator, x_range, y_range, count: int = 1
) -> np.ndarray:
    """Uniform random points in an axis-aligned rectangle."""
    x0, x1 = x_range
    y0, y1 = y_range
    if x1 < x0 or y1 < y0:
        raise ValueError("ranges must be non-decreasing")
    return np.column_stack((rng.uniform(x0, x1, count), rng.uniform(y0, y1, count)))


def sector_angles_ok(center, points, min_sector_deg: float) -> bool:
    """True if no two ``points`` fall within ``min_sector_deg`` of each other
    as seen from ``center``.

    This is the paper's Fig 12 deployment rule: "any two antennas from the
    same AP cannot be deployed within a 60-degree sector measured with
    respect to the AP", which prevents antennas clustering on the far side.
    """
    pts = as_points(points)
    if len(pts) < 2:
        return True
    cx, cy = np.asarray(center, dtype=float)
    angles = np.degrees(np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx))
    angles = np.sort(np.mod(angles, 360.0))
    # Consecutive gaps around the circle (including the wrap-around gap);
    # the minimum consecutive gap equals the minimum pairwise separation.
    gaps = np.diff(np.concatenate((angles, [angles[0] + 360.0])))
    return bool(np.min(gaps) >= min_sector_deg)


def grid_points(x_range, y_range, step: float) -> np.ndarray:
    """Regular measurement grid covering the rectangle, shape ``(n, 2)``.

    Used by the deadzone (0.5 m) and hidden-terminal (1 m) surveys.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    xs = np.arange(x_range[0], x_range[1] + step / 2, step)
    ys = np.arange(y_range[0], y_range[1] + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack((gx.ravel(), gy.ravel()))


def points_within(points, center, radius: float) -> np.ndarray:
    """Boolean mask of which ``points`` lie within ``radius`` of ``center``."""
    pts = as_points(points)
    center = np.asarray(center, dtype=float)
    return np.linalg.norm(pts - center[None, :], axis=1) <= radius
