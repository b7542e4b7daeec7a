"""The point container and the radius-graph adjacency matrix.

Two nodes are adjacent when their Euclidean distance is strictly below the
clustering radius ``r``.  The boundary is exact: no tolerance band is applied,
so a pair at distance exactly ``r`` is not adjacent.  Every node is adjacent
to itself (distance 0), which puts an all-ones diagonal on the adjacency
matrix; powers of such a matrix then encode "reachable within that many hops
or fewer", the property the paper's power method (``matpower``) rests on.

Dimension is arbitrary (>= 1) and must be uniform within a point set.

Distances are computed in float64 as ``sqrt(e_0**2 + e_1**2 + ...)`` over the
axis differences ``e_k``, added left to right one axis at a time, so the sum
depends on neither numpy's reduction strategy nor the memory layout.  That
is only trustworthy while no square underflows or overflows.  The radius
and every nonzero coordinate magnitude must therefore lie in the safe range
``[SCALE_MIN, SCALE_MAX] = [2**-500, 2**500]``; coordinates may also be
exactly 0.  Inside that range a nonzero coordinate difference is at least
``2**-552``, every sum of squares stays below ``d * 2**1002`` (finite for
any d below ``2**22``), and a square that rounds into the subnormal range
is off by less than ``2**-1074``, under ``2**-74`` of ``r**2``: less than
the rounding every sum of squares already carries.  ``PointSet`` refuses
coordinates outside the range, and ``ClusteringConfig`` such a radius, with
``ValueError`` instead of letting them be clustered wrongly.

The distance predicate is applied only to candidate pairs from a uniform
grid, the cell index of DBSCAN (Ester et al., KDD 1996) and of grid DBSCAN
(Gunawan 2013).  Points are hashed into cells of side exactly ``s = r`` over
at most the first three axes: the cell of a coordinate ``x`` on one axis is
``floor(x / s)`` in float64.  A pair is a candidate when its cells are equal
or neighbours (floors at most 1 apart) on every grid axis.  Dropping the
axes past the third only adds candidates, as the distance over some axes
never exceeds the full distance, so one code path serves every d with at
most 14 cell offsets (13 neighbours, one per unordered pair of directions,
and the cell itself).  Two facts make the candidates a superset of the
edges:

1. A computed distance below ``r`` puts every exact axis difference below
   ``r``.  With ``e = fl(x - y)``, it is at least ``RN(sqrt(RN(e * e)))``,
   as rounding, non-negative sums and the square root are monotone, whatever
   the order of the sum, so the grid is exact under any order; that is
   ``|e|`` in binary64 (Boldo, "Stupid is as stupid does", ENTCS 317, 2015)
   unless ``e * e < 2**-1022``, which needs ``|e| < 2**-511 < r``.  As ``r``
   is a float, monotone rounding turns ``|e| < r`` into ``|x - y| < r``.
2. Floats ``x < y`` whose cells are two or more apart are at least ``s``
   apart, whatever the rounding of ``x / s``.  Take an integer ``K`` with
   ``fl(x / s) < K`` and ``K + 1 <= fl(y / s)``, both representable (one
   exists unless ``|x|`` or ``|y|`` nears ``2**53 * s``, where consecutive
   floats are already ``s`` or more apart).  With ``g(z)`` the gap below the
   float ``z``, rounding to nearest gives ``x / s <= K - g(K) / 2`` and
   ``y / s >= K + 1 - g(K + 1) / 2``, so ``y - x >= s`` unless the gap grows
   from ``K`` to ``K + 1``.  It grows only for ``K = 0`` and ``K = 2**q``,
   and there the float grid closes the deficit: no float lies in
   ``[s * (1 - 2**-54), s)``, so ``y >= s``; and no float lies in
   ``(2**q * s * (1 - 2**-53), 2**q * s)``, so ``x / s <= K - g(K + 1) / 2``.

At ``s = r``, an edge's cells are thus at most 1 apart on every grid axis.
Across the safe range the floors reach ``2**1000`` in magnitude, past any
integer type, so one stable sort of the ``(N, m)`` floor block numbers each
axis's distinct floors in order: the number starts at 1 and steps by 0
between equal sorted floors, by 1 between neighbours (floors exactly 1
apart, an exact float test, as the difference of two integer-valued floats
is exact or far above 1) and by 2 between floors further apart.  So
neighbours are one number apart and other cells at least two, and the
numbers of all grid axes form one mixed-radix int64 cell key below the
product of the axes' sizes, at most ``(2 * N + 1)**3``.  A product past
``2**63 - 1`` is a ``ValueError``; it takes ``N >= 2**20``, whose adjacency
matrix (1 TiB) the memory guard refuses first on smaller machines.

Neighbouring cell pairs come from one ``searchsorted`` per offset on the
sorted cell keys.  Each cell pair contributes every point pair of its two
cells, the cell itself included, and these candidates are expanded and
tested in batches of at most ``_CHUNK_ELEMENTS``, so no temporary grows with
the crowding of a cell: all-coincident points test ``N**2`` candidates in
fixed-size batches.

Exact invariances.  As the grid only picks candidates (facts 1 and 2), the
adjacency is the predicate over all pairs, so a transform of the input
that leaves every pair's predicate alone leaves the adjacency alone, entry
for entry once the transform is undone, and the partition with it:

- Row permutation.  Entry ``(i, j)`` reads rows ``i`` and ``j`` alone, so
  the matrix's rows and columns permute with the points'.  The components
  are the same sets of points; labels are numbered by each component's
  lowest row, so they are the permuted labels renumbered in that order.
- A point coincident with row ``i``, appended under a new id.  Its axis
  differences to any row are row ``i``'s, bit for bit, and to row ``i``
  all 0, below any ``r``: it takes row ``i``'s adjacency row and an edge
  to ``i``, and no old entry changes.  It joins ``i``'s component and, as
  the last row, is no component's lowest, so no old label changes.
- Scaling the coordinates and ``r`` by ``2**k``, while every value stays in
  the safe range and no square is subnormal.  There each step commutes
  with the exact scale: ``fl(2**k * x - 2**k * y) = 2**k * fl(x - y)``,
  squares and their sums scale by ``2**(2 * k)``, ``sqrt`` back by
  ``2**k``, and the comparison with ``2**k * r`` is the same.
- Negating any axis.  Rounding to nearest is symmetric, so
  ``fl(-x - (-y)) = -fl(x - y)`` and every square is the same.
- Swapping axes 0 and 1.  They meet only in the sum's first addition,
  ``e_0**2 + e_1**2``, which commutes; every later addition then sees the
  same partial sum.

Nothing else is exact.  Any other order of the axes regroups the sum, and
float addition does not associate, so a pair within an ulp or so of ``r``
may cross it.  Translation rounds ``x + c`` and ``y + c`` before they are
subtracted, so ``fl((x + c) - (y + c))`` need not be ``fl(x - y)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "NodeId",
    "PointSet",
    "ClusteringConfig",
    "BinaryMatrix",
    "build_adjacency",
    "SCALE_MIN",
    "SCALE_MAX",
]

NodeId = Union[int, str]

# Safe magnitudes for the radius and nonzero coordinates (module docstring).
SCALE_MIN = 2.0**-500
SCALE_MAX = 2.0**500
_SAFE_RANGE = f"[2**-500, 2**500] ({SCALE_MIN:.3g} to {SCALE_MAX:.3g})"

# Candidate pairs per adjacency batch: 512 KiB per int64 or float64
# temporary, small enough to stay in cache.
_CHUNK_ELEMENTS = 2**16

# For m grid axes, the cell offsets in {-1, 0, 1}**m that are zero or
# lexicographically positive: one of each opposite pair, and the cell itself.
_HALF_OFFSETS = {
    m: np.array(
        [o for o in itertools.product((-1, 0, 1), repeat=m) if o >= (0,) * m]
    )
    for m in (1, 2, 3)
}

# cgroup memory limits: v2, then v1.
_CGROUP_LIMIT_FILES = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


@functools.cache
def _physical_memory() -> int:
    """Bytes of memory this process may use.

    Physical memory, or a numeric cgroup limit below it.  ``max``, missing
    or unreadable files and limits at or above physical memory (cgroup v1
    reports about 2**63 for "no limit") leave physical memory in force.
    """
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for path in _CGROUP_LIMIT_FILES:
        try:
            with open(path, encoding="ascii") as fh:
                raw = fh.read().strip()
        except (OSError, ValueError):
            continue
        if raw.isdigit():
            limit = min(limit, int(raw))
    return limit


class PointSet:
    """An ordered set of uniquely labeled points of one dimension.

    ``coords`` is a read-only (N, d) float64 copy of the input, N >= 1 and
    d >= 1, every value 0 or of a magnitude in ``[SCALE_MIN, SCALE_MAX]``
    (see the module docstring); ``ids`` is a tuple of N unique node ids,
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
        mag = np.abs(arr)
        safe = (mag == 0.0) | ((mag >= SCALE_MIN) & (mag <= SCALE_MAX))
        if not safe.all():
            i, k = np.argwhere(~safe)[0]
            if not np.isfinite(arr[i]).all():
                raise ValueError(f"point {ids[i]!r}: coordinates must be finite")
            raise ValueError(
                f"point {ids[i]!r}: coordinate {float(arr[i, k])!r} is outside "
                f"the safe magnitude range 0 or {_SAFE_RANGE}"
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


class BinaryMatrix:
    """A square 0/1 matrix stored as a read-only boolean array.

    Any array-like input is accepted; nonzero entries become 1.  Only a
    read-only boolean ndarray that owns its data is kept, not copied.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        owned = isinstance(bits, np.ndarray) and bits.dtype == bool and bits.flags.owndata
        arr = bits if owned and not bits.flags.writeable else np.array(bits, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"binary matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("binary matrix must have at least one row")
        arr.setflags(write=False)
        self.bits = arr

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    __hash__ = None  # mutable-array semantics: compare, don't hash

    def __repr__(self) -> str:
        return f"BinaryMatrix(n={self.n})"


def _cell_keys(coords: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix int64 cell key of each row, and the stride of each axis.

    Along each axis the distinct floors ``floor(x / side)`` are numbered in
    order from 1, skipping one number between floors that are not
    neighbours (module docstring); the last axis varies fastest in the key.
    A key past int64 is a ``ValueError``; temporaries end with the call.
    """
    n, m = coords.shape
    floors = np.floor(coords / side)
    by_floor = floors.argsort(axis=0, kind="stable")
    axes = np.arange(m)
    ranked = floors[by_floor, axes]
    # Steps of 0 (equal floors), 1 (neighbours) or 2 (further apart): a
    # neighbouring cell is then one number away, and a step off either end
    # of a row of cells meets no cell.
    gap = ranked[1:] - ranked[:-1]
    step = np.empty((n, m), dtype=np.int64)
    step[0] = 1
    np.add(gap != 0.0, gap > 1.0, out=step[1:], dtype=np.int64)
    slots = step.cumsum(axis=0)
    # Axis k holds numbers 0..size-1, size = its last number + 2.
    sizes = [int(last) + 2 for last in slots[-1]]
    if math.prod(sizes) > 2**63 - 1:
        raise ValueError(f"{n} points span {sizes} grid cells, too many for int64 cell keys")
    slot = np.empty_like(slots)
    slot[by_floor, axes] = slots
    stride = np.array([math.prod(sizes[k + 1 :]) for k in range(m)], dtype=np.int64)
    return slot @ stride, stride


class _CellPairs:
    """Candidate pairs of a uniform grid of cell side ``side``.

    The candidates are every point pair of equal and neighbouring cells
    (module docstring), ``total`` of them, read in slices by ``batch``.
    Each unordered pair of distinct points closer than ``side`` appears at
    least once, in one order or the other; the pairs of a cell with itself
    include ``(i, i)``.
    """

    def __init__(self, coords: np.ndarray, side: float) -> None:
        n = coords.shape[0]
        m = min(coords.shape[1], 3)
        key, stride = _cell_keys(coords[:, :m], side)
        order = key.argsort(kind="stable")
        sorted_key = key[order]
        # Cell c holds sorted rows bounds[c]:bounds[c + 1].
        edge = np.empty(n + 1, dtype=bool)
        edge[0] = edge[n] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=edge[1:n])
        bounds = edge.nonzero()[0]
        start, count = bounds[:-1], bounds[1:] - bounds[:-1]
        cells = sorted_key[start]
        # Slots stay within 0..size-1 under any offset, so an offset adds to
        # the key without carry, and a target key names one cell or none.
        target = (cells + (_HALF_OFFSETS[m] @ stride)[:, None]).ravel()
        b = cells.searchsorted(target)
        np.minimum(b, cells.size - 1, out=b)
        hit = (cells[b] == target).nonzero()[0]
        a, b = hit % cells.size, b[hit]
        # Cell pair p owns candidates begin[p]:end[p] of the whole sequence,
        # a count[a] x count[b] block read row by row.
        self._order = order
        self._first_a, self._first_b = start[a], start[b]
        self._width = count[b]
        block = count[a] * self._width
        self._end = block.cumsum()
        self._begin = self._end - block
        self.total = int(self._end[-1])

    def batch(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays ``(i, j)`` of candidates ``lo`` to ``hi`` (exclusive)."""
        t = np.arange(lo, min(hi, self.total), dtype=np.int64)
        p = self._end.searchsorted(t, side="right")
        row, col = np.divmod(t - self._begin[p], self._width[p])
        i = self._order[self._first_a[p] + row]
        return i, self._order[self._first_b[p] + col]


def _set_close_pairs(bits, coords, i, j, radius) -> None:
    """Set ``bits[i, j]`` and ``bits[j, i]`` where the pair is closer than ``radius``.

    The one distance predicate, over the pairs ``(i[k], j[k])``: squared
    axis differences added left to right (module docstring).  Its
    temporaries are one batch long and end with the call.
    """
    total = 0.0
    for k in range(coords.shape[1]):
        e = coords[i, k] - coords[j, k]
        total = total + e * e
    keep = np.sqrt(total) < radius
    i, j = i[keep], j[keep]
    bits[i, j] = True
    bits[j, i] = True


def build_adjacency(ps: PointSet, cfg: ClusteringConfig) -> BinaryMatrix:
    """N x N adjacency: entry (i, j) is 1 iff distance(p_i, p_j) < r.

    Symmetric by construction, diagonal all ones (0 < r always holds).  The
    distance, ``sqrt`` of the squared axis differences added left to right,
    is computed only for the candidate pairs of a uniform grid (module
    docstring), in batches of ``_CHUNK_ELEMENTS``, and each kept pair is
    set in both directions; every entry equals that
    expression evaluated over all N x N pairs at once, bit for bit.  Raises
    ``ValueError``, before allocating, when the ``N**2`` bytes of the
    boolean matrix exceed the usable memory (physical memory or a lower
    cgroup limit); the matrix is frozen and wrapped, not copied.
    """
    coords = ps.coords
    n = coords.shape[0]
    have = _physical_memory()
    if n * n > have:
        raise ValueError(
            f"{n} points need {n * n} bytes for the dense adjacency, "
            f"more than the {have} bytes of memory available"
        )
    bits = np.zeros((n, n), dtype=bool)
    pairs = _CellPairs(coords, cfg.radius)
    for lo in range(0, pairs.total, _CHUNK_ELEMENTS):
        # Passed straight on, not bound to a name, each batch is freed as
        # soon as it is tested.
        _set_close_pairs(
            bits, coords, *pairs.batch(lo, lo + _CHUNK_ELEMENTS), cfg.radius
        )
    bits.setflags(write=False)
    return BinaryMatrix(bits)
