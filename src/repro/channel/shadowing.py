"""Log-normal shadowing with spatial correlation (Gudmundson-style).

Each *transmit site* owns an independent shadowing field over receiver
positions.  Antennas co-located at one site (a CAS array) therefore see
identical shadowing toward any receiver -- the physical reason a CAS has
"almost the same path loss from different antennas" (paper Fig 2a) -- while
distributed antennas see independent fields.

The field is realized as i.i.d. Gaussians on a coarse lattice with spacing
equal to the decorrelation distance, bilinearly interpolated and re-scaled
to preserve the marginal standard deviation.  This is O(points) instead of
the O(points^3) Cholesky construction, which matters for the 0.5 m deadzone
survey grids.

Sampling is fully vectorized.  Lattice nodes are still drawn lazily -- in
the order a point-by-point walk would first touch them, so the generator
stream (and therefore every result) is bit-identical to the historical
scalar implementation -- but the bilinear interpolation runs as array math
over all query points at once.
"""

from __future__ import annotations

import numpy as np

from ..topology import geometry

#: Lattice indices are packed into a single int64 key, ``ix * 2**31 + iy``;
#: collision-free for |iy| < 2**30, far beyond any indoor survey extent.
_KEY_STRIDE = 2**31

#: Corner offsets in the order the scalar implementation visited them:
#: (ix, iy), (ix+1, iy), (ix, iy+1), (ix+1, iy+1).
_CORNERS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)


def _lattice_geometry(pts: np.ndarray, correlation_m: float):
    """Lattice keys ``(..., n, 4)``, bilinear weights ``(..., n, 4)`` and
    weight norms ``(..., n)`` of query points ``(..., n, 2)``."""
    scaled = pts / correlation_m
    base = np.floor(scaled).astype(np.int64)
    frac = scaled - base
    corners = base[..., None, :] + _CORNERS  # (..., n, 4, 2)
    keys = corners[..., 0] * _KEY_STRIDE + corners[..., 1]
    fx = frac[..., 0]
    fy = frac[..., 1]
    weights = np.stack(
        [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=-1
    )
    return keys, weights, np.sqrt(np.sum(weights * weights, axis=-1))


class PreparedPoints:
    """Lattice keys and bilinear weights of one query-point set, reusable
    across every :class:`ShadowingField` sharing the correlation length."""

    __slots__ = ("n_points", "keys", "key_list", "weights", "norm")

    def __init__(self, keys: np.ndarray, weights: np.ndarray, norm: np.ndarray):
        self.n_points = len(keys)
        self.keys = keys
        # Only the small-set dict-walk branch of sample_prepared reads the
        # boxed key list; large point sets (survey grids) skip the boxing.
        self.key_list = keys.ravel().tolist() if keys.size <= 64 else None
        self.weights = weights
        self.norm = norm


def prepare_points(points, correlation_m: float) -> PreparedPoints:
    """Pre-compute the lattice-interpolation geometry for ``points``."""
    return PreparedPoints(*_lattice_geometry(geometry.as_points(points), correlation_m))


def prepare_point_stack(points, correlation_m: float) -> list[PreparedPoints]:
    """:func:`prepare_points` for each set of a ``(batch, n, 2)`` stack,
    with the geometry computed for the whole stack at once."""
    keys, weights, norm = _lattice_geometry(geometry.as_point_stack(points), correlation_m)
    return [PreparedPoints(*item) for item in zip(keys, weights, norm)]


class ShadowingField:
    """A smooth 2-D Gaussian field with st.dev. ``sigma_db``.

    Values at lattice nodes are drawn lazily and cached, so the field is
    consistent: querying the same point twice returns the same value, and
    nearby points are correlated with decorrelation length ``correlation_m``.
    """

    def __init__(self, rng: np.random.Generator, sigma_db: float, correlation_m: float):
        if sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if correlation_m <= 0:
            raise ValueError("correlation_m must be positive")
        self._rng = rng
        self.sigma_db = float(sigma_db)
        self.correlation_m = float(correlation_m)
        self._nodes: dict[int, float] = {}

    def _node(self, ix: int, iy: int) -> float:
        key = int(ix) * _KEY_STRIDE + int(iy)
        value = self._nodes.get(key)
        if value is None:
            value = float(self._rng.standard_normal())
            self._nodes[key] = value
        return value

    def _node_values(self, keys: np.ndarray) -> np.ndarray:
        """Cached node values for packed ``keys``, drawing missing nodes in
        first-occurrence order (matching a sequential point-by-point walk)."""
        unique, first_index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        nodes = self._nodes
        unique_list = unique.tolist()
        missing_mask = np.fromiter(
            (key not in nodes for key in unique_list), bool, count=len(unique_list)
        )
        if missing_mask.any():
            # Draw in the order a scalar walk would first touch each node;
            # standard_normal(k) consumes the stream exactly like k scalar
            # draws, so the generator state stays bit-compatible.
            missing = unique[missing_mask].tolist()
            order = np.argsort(first_index[missing_mask], kind="stable")
            draws = self._rng.standard_normal(len(missing))
            for rank, slot in enumerate(order):
                nodes[missing[slot]] = float(draws[rank])
        values = np.array([nodes[key] for key in unique_list])
        return values[inverse]

    def sample(self, points) -> np.ndarray:
        """Shadowing in dB at each point, shape ``(n_points,)``."""
        pts = geometry.as_points(points)
        if self.sigma_db == 0.0:
            return np.zeros(len(pts))
        return self.sample_prepared(prepare_points(pts, self.correlation_m))

    def sample_prepared(self, prep: "PreparedPoints") -> np.ndarray:
        """Shadowing at points pre-processed by :func:`prepare_points`.

        Several fields sharing one correlation length (the per-site fields
        of one deployment) can reuse a single preparation of the same query
        points -- the mobility engines re-evaluate every site toward the
        same moved client set each round, and the lattice-key/weight math
        is identical across sites.  Values and draw order match
        :meth:`sample` exactly.
        """
        if self.sigma_db == 0.0:
            return np.zeros(prep.n_points)
        keys, key_list = prep.keys, prep.key_list
        if keys.size <= 64:
            # Few points (client sets): a direct dict walk beats the
            # np.unique machinery.  Same first-visit draw order either way.
            nodes = self._nodes
            rng = self._rng
            node_values = np.array(
                [
                    nodes[key]
                    if key in nodes
                    else nodes.setdefault(key, float(rng.standard_normal()))
                    for key in key_list
                ]
            ).reshape(prep.n_points, 4)
        else:
            node_values = self._node_values(keys.ravel()).reshape(prep.n_points, 4)
        raw = np.sum(prep.weights * node_values, axis=1)
        # Bilinear mixing shrinks the variance; restore the marginal sigma.
        return raw / prep.norm * self.sigma_db


def group_antenna_sites(antenna_positions, tolerance_m: float = 1.0) -> np.ndarray:
    """Group antennas into shadowing *sites*: single-linkage clusters of the
    "within ``tolerance_m``" relation, so any chain of close pairs shares one
    site regardless of antenna order (union-find over all close pairs).

    A CAS array (half-wavelength spacing) collapses to one site; DAS antennas
    5+ m apart each get their own.  Site ids are assigned in order of each
    cluster's first antenna, matching the historical greedy assignment on
    every non-chained layout (where the two are identical).
    """
    pts = geometry.as_points(antenna_positions)
    n = len(pts)
    parent = np.arange(n)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return int(i)

    dists = geometry.pairwise_distances(pts, pts) if n else np.empty((0, 0))
    for i in range(n):
        for j in range(i + 1, n):
            if dists[i, j] <= tolerance_m:
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    # Keep the smaller index as root so cluster roots stay in
                    # first-antenna order for the relabeling below.
                    parent[max(root_i, root_j)] = min(root_i, root_j)
    site_of = np.full(n, -1, dtype=int)
    next_site = 0
    for i in range(n):
        root = find(i)
        if site_of[root] < 0:
            site_of[root] = next_site
            next_site += 1
        site_of[i] = site_of[root]
    return site_of
