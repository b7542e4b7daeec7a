"""The point container and radius-graph adjacency.

Two nodes are adjacent when their Euclidean distance is strictly below the
clustering radius ``r``.  The boundary is exact: no tolerance band is applied,
so a pair at distance exactly ``r`` is not adjacent.  Every node is adjacent
to itself (distance 0), which puts an all-ones diagonal on the adjacency
matrix; powers of such a matrix then encode "reachable within that many hops
or fewer", the property the labeling step depends on.

Dimension is arbitrary (>= 1) and must be uniform within a point set.

Distances are computed as ``sqrt(sum(diff**2))`` in float64, which is only
trustworthy while no square underflows or overflows.  The radius and every
nonzero coordinate magnitude must therefore lie in the safe range
``[SCALE_MIN, SCALE_MAX] = [2**-500, 2**500]``; coordinates may also be
exactly 0.  Inside that range a nonzero coordinate difference is at least
``2**-552``, every sum of squares stays below ``d * 2**1002`` (finite for
any d below ``2**22``), and a square that rounds into the subnormal range
is off by less than ``2**-1074``, under ``2**-74`` of ``r**2``: less than
the rounding every sum of squares already carries.  Inputs outside the
range are rejected with ``ValueError`` instead of being clustered wrongly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .matpower import BinaryMatrix

__all__ = [
    "NodeId",
    "PointSet",
    "ClusteringConfig",
    "build_adjacency",
    "SCALE_MIN",
    "SCALE_MAX",
]

NodeId = Union[int, str]

# Safe magnitudes for the radius and nonzero coordinates (module docstring).
SCALE_MIN = 2.0**-500
SCALE_MAX = 2.0**500
_SAFE_RANGE = f"[2**-500, 2**500] ({SCALE_MIN:.3g} to {SCALE_MAX:.3g})"

# Elements of the (rows, N, d) float64 difference block per adjacency chunk:
# 512 KiB per temporary, small enough to stay in cache, unless a single row
# (N x d) is larger.
_CHUNK_ELEMENTS = 2**16


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class PointSet:
    """An ordered set of uniquely labeled points of one dimension.

    ``coords`` is a read-only (N, d) float64 copy of the input, N >= 1 and
    d >= 1, every value finite; ``ids`` is a tuple of N unique node ids,
    0..N-1 when none are given.  Ids are the nodes' identities, stable across
    trajectory frames.  Row order is the canonical node index order: row and
    column ``i`` of the adjacency matrix, entry ``i`` of the label vector and
    row ``i`` of any report all refer to ``coords[i]`` and ``ids[i]``.
    """

    __slots__ = ("ids", "coords")

    def __init__(self, coords, ids: Sequence[NodeId] | None = None) -> None:
        arr = np.array(coords, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"coords must be 2-d (N, d), got shape {arr.shape}")
        n, d = arr.shape
        if n == 0:
            raise ValueError("a point set needs at least one point")
        ids = tuple(range(n)) if ids is None else tuple(ids)
        if len(ids) != n:
            raise ValueError(f"got {len(ids)} ids for {n} points")
        if d == 0:
            raise ValueError(f"point {ids[0]!r}: needs at least one coordinate")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"point {ids[int(finite.argmin())]!r}: coordinates must be finite"
            )
        if len(set(ids)) != n:
            seen = set()
            for i in ids:
                if i in seen:
                    raise ValueError(f"duplicate point id {i!r}")
                seen.add(i)
        arr.setflags(write=False)
        self.ids = ids
        self.coords = arr

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)}, d={self.dimension})"


@dataclass(frozen=True)
class ClusteringConfig:
    """Clustering parameters: the neighbor-search radius ``r``.

    ``r`` must lie in ``[SCALE_MIN, SCALE_MAX]`` (see the module docstring).
    """

    radius: float

    def __post_init__(self) -> None:
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not SCALE_MIN <= r <= SCALE_MAX:
            raise ValueError(
                f"radius {self.radius} is outside the safe range {_SAFE_RANGE}"
            )
        object.__setattr__(self, "radius", r)


def build_adjacency(ps: PointSet, cfg: ClusteringConfig) -> BinaryMatrix:
    """N x N adjacency: entry (i, j) is 1 iff distance(p_i, p_j) < r.

    Symmetric by construction, diagonal all ones (0 < r always holds).
    Rows are filled in chunks so the float64 temporaries stay bounded by
    ``_CHUNK_ELEMENTS`` (or one row, if larger) instead of growing as
    N x N x d; each chunk uses the same distance expression, so the result
    is bit-identical.  Raises ``ValueError`` for a nonzero coordinate
    magnitude outside ``[SCALE_MIN, SCALE_MAX]``, and, before allocating,
    when the ``2 * N**2`` bytes of the boolean matrix and the copy
    ``BinaryMatrix`` makes of it exceed physical memory.
    """
    coords = ps.coords
    n, d = coords.shape
    need, have = 2 * n * n, _physical_memory()
    if need > have:
        raise ValueError(
            f"{n} points need {need} bytes for the dense adjacency, more than "
            f"the {have} bytes of physical memory"
        )
    mag = np.abs(coords)
    bad = (mag != 0.0) & ((mag < SCALE_MIN) | (mag > SCALE_MAX))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(
            f"point {ps.ids[i]!r}: coordinate {float(coords[i, k])!r} is outside "
            f"the safe magnitude range 0 or {_SAFE_RANGE}"
        )
    rows = max(1, _CHUNK_ELEMENTS // (n * d))
    bits = np.empty((n, n), dtype=bool)
    for start in range(0, n, rows):
        diff = coords[start : start + rows, None, :] - coords[None, :, :]
        bits[start : start + rows] = np.sqrt((diff**2).sum(axis=-1)) < cfg.radius
    return BinaryMatrix(bits)
