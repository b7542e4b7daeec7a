"""Mask-based cluster labeling and size-ranked cluster tables.

The paper labels by a mask scan: walk the node indices once; each
still-unlabeled node becomes the seed of a fresh cluster, its row of the
power matrix becomes the mask, and any later unlabeled node whose own row
shares at least one set bit with the mask joins the cluster.  Because the
power matrix covers at least ``floor(n / 2)`` hops, two nodes of the same
radius-graph component always see each other through a common mid-path
node, and nodes of different components never overlap, so rows i and j
share a set bit exactly when i and j are in the same component and the
produced partition is exactly the connected components.

``cluster_labels`` computes the same labels without the scan.  For each
column t, ``first[t]`` is the lowest row with bit t set.  The lowest row
sharing a bit with row j is then ``seed[j] = min(first[t])`` over the set
bits t of row j.  By the midpoint argument above that is the lowest index
of j's component: the very seed whose mask labels j in the scan.  Ranking
the distinct seeds densely gives the scan's labels.

Label numbers are dense, starting at 1, in order of each cluster's
lowest-index node.  ``connected_components_oracle`` computes the same
partition by plain graph traversal and serves as independent ground truth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import ClusteringConfig, PointSet, build_adjacency
from .matpower import BinaryMatrix, power_fast

__all__ = [
    "LabelVector",
    "ClusterTable",
    "cluster_labels",
    "connected_components_oracle",
    "build_cluster_table",
    "cluster_pointset",
    "cluster_color_names",
    "RANK_COLOR_NAMES",
    "EXTRA_COLOR_NAMES",
]

# Ranks 1-3 are fixed; further clusters cycle through the extra palette.
RANK_COLOR_NAMES = ("red", "green", "blue")
EXTRA_COLOR_NAMES = (
    "orange",
    "purple",
    "brown",
    "deeppink",
    "teal",
    "olive",
    "navy",
    "maroon",
    "darkcyan",
    "goldenrod",
)


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Per-node cluster labels: entry i is the 1-based label of node i.

    Labels of a finished run form the contiguous range 1..C; 0 exists only as
    the transient "unassigned" state inside the algorithms.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-d sequence")
        top = int(arr.max(initial=0))
        if arr.min(initial=1) < 1 or not np.array_equal(
            np.unique(arr), np.arange(1, top + 1)
        ):
            raise ValueError("labels must cover the contiguous range 1..C")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max())

    def __len__(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelVector):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabelVector(n={len(self)}, clusters={self.n_clusters})"


@dataclass(frozen=True)
class ClusterTable:
    """Cluster sizes and the size ranking.

    ``frequencies`` maps label -> node count.  ``ranking`` lists labels by
    descending size, ties broken by ascending label; ``cluster_color_names``
    maps it to display colors.
    """

    frequencies: dict[int, int]
    ranking: tuple[int, ...] = ()

    @property
    def sizes_ranked(self) -> tuple[int, ...]:
        return tuple(self.frequencies[c] for c in self.ranking)


def cluster_labels(g: BinaryMatrix) -> LabelVector:
    """Assign cluster labels from the (binarized) power matrix ``g``.

    Each node is labeled by the lowest row that shares a set bit with its
    own row, which is the seed the paper's mask scan would label it from;
    distinct seeds are numbered 1, 2, ... in index order (see the module
    docstring).
    """
    bits = g.bits
    if not bits.any(axis=1).all():
        raise ValueError("power matrix has an all-zero row")
    n = g.n
    # Row indices and the fill value n fit the narrowest unsigned dtype,
    # which keeps the n x n temporary of the next line small.
    first = bits.argmax(axis=0).astype(np.min_scalar_type(n))
    seed = np.where(bits, first, first.dtype.type(n)).min(axis=1)
    _, labels = np.unique(seed, return_inverse=True)
    return LabelVector(labels + 1)


def connected_components_oracle(a: BinaryMatrix) -> LabelVector:
    """Connected components of the adjacency graph, by breadth-first search.

    Independent of the matrix-power path; uses the same numbering convention
    (the component of the lowest-index unlabeled node gets the next label).
    """
    bits = a.bits
    if not np.array_equal(bits, bits.T):
        raise ValueError("adjacency matrix must be symmetric")
    n = a.n
    labels = np.zeros(n, dtype=np.int64)
    c = 0
    for start in range(n):
        if labels[start] != 0:
            continue
        c += 1
        labels[start] = c
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(bits[v]):
                if labels[w] == 0:
                    labels[w] = c
                    queue.append(int(w))
    return LabelVector(labels)


def build_cluster_table(lv: LabelVector) -> ClusterTable:
    """Count nodes per label and rank clusters by descending size."""
    counts = np.bincount(lv.labels, minlength=lv.n_clusters + 1)[1:]
    frequencies = {c + 1: int(f) for c, f in enumerate(counts)}
    ranking = tuple(sorted(frequencies, key=lambda c: (-frequencies[c], c)))
    return ClusterTable(frequencies=frequencies, ranking=ranking)


def cluster_pointset(
    ps: PointSet, cfg: ClusteringConfig
) -> tuple[LabelVector, ClusterTable]:
    """Full pipeline: adjacency -> matrix power -> labels -> cluster table.

    The semiring power is already 0/1, so no separate binarize pass is needed.
    Deterministic in the input order.
    """
    adjacency = build_adjacency(ps, cfg)
    g, _ = power_fast(adjacency)
    lv = cluster_labels(g)
    return lv, build_cluster_table(lv)


def cluster_color_names(table: ClusterTable) -> dict[int, str]:
    """Map every label to its display color name.

    Ranks 1-3 are red, green, blue; later ranks cycle the extra palette.
    """
    colors: dict[int, str] = {}
    for rank, label in enumerate(table.ranking, start=1):
        if rank <= len(RANK_COLOR_NAMES):
            colors[label] = RANK_COLOR_NAMES[rank - 1]
        else:
            colors[label] = EXTRA_COLOR_NAMES[
                (rank - len(RANK_COLOR_NAMES) - 1) % len(EXTRA_COLOR_NAMES)
            ]
    return colors
