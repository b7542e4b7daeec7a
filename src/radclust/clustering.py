"""Connected-component labels and size-ranked cluster tables.

The clusters are the connected components of the radius graph.
``cluster_labels`` finds them straight from the adjacency matrix, with no
matrix product, by min-label hooking with pointer jumping (Shiloach &
Vishkin 1982) on a forest of parent pointers, in rounds.  At the start of a
round every tree is a star: each node points at its tree's root, the lowest
index in the tree.  One pass over the matrix rows gives each node the lowest
root among its neighbours, and each root whose star sees a lower root hooks
onto the lowest one it sees.  Hooks only go to lower roots, so no cycle can
form.  Pointer jumping then turns every tree back into a star.  A round
with no hook ends the loop; every component is then one star rooted at its
lowest index.

Round bound: a star that still has a neighbour outside it either sees a
lower root and hooks, or sees only higher roots.  In the second case each
of those neighbouring stars sees its root and hooks, onto it or onto a root
lower still, so the star either gains a child in this round or sees a lower
root, and hooks, in the next.  Over any two rounds every star of an
unfinished component thus merges with another, and the component's star
count at least halves.  Starting from n one-node stars, at most
``2 floor(log2 n)`` rounds hook and one more finds nothing to hook: at most
``2 floor(log2 n) + 1`` rounds in all.  Each round reads the ``n x n``
matrix once, as one masked row minimum over a broadcast view of the roots,
so the step costs ``O(n**2 log n)`` time in the worst case and holds no
temporary larger than a few length-n vectors.  The view is made once:
hooking and pointer jumping write the roots in place, so it always reads
the current ones.

Label numbers are dense, starting at 1, in order of each cluster's
lowest-index node.  A root is its component's lowest index, so root ``r``'s
label is the number of roots at or below ``r``: one cumulative sum over the
nodes that are their own roots, with no sort.  The paper's route to the
same partition, a matrix power read by a mask scan, is the reference in
``matpower``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle

import numpy as np

from .geometry import BinaryMatrix, ClusteringConfig, PointSet, build_adjacency

__all__ = [
    "LabelVector",
    "ClusterTable",
    "cluster_labels",
    "build_cluster_table",
    "cluster_pointset",
    "cluster_color_names",
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
    the transient "unassigned" state inside the algorithms.  The check costs
    ``O(n + C)`` with no sort: the least label is 1, the largest is at most
    n (as C must be), and a count per label finds none of 1..C missing.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a non-empty 1-d sequence")
        # The bound on the largest label comes first: it caps the bincount.
        if arr.min() < 1 or arr.max() > arr.size or not np.bincount(arr)[1:].all():
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
    ranking: tuple[int, ...]

    @property
    def sizes_ranked(self) -> tuple[int, ...]:
        return tuple(self.frequencies[c] for c in self.ranking)


def _component_roots(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Hook stars onto lower roots until none can (see the module docstring).

    Returns ``roots``, where ``roots[v]`` is the lowest index in v's
    component, and the number of rounds run, at most ``2 floor(log2 n) + 1``.
    """
    n = bits.shape[0]
    # Node indices and n itself fit the narrowest unsigned dtype.
    roots = np.arange(n, dtype=np.min_scalar_type(n))
    # Every row of the view reads ``roots``, which is only updated in place.
    view = np.broadcast_to(roots, bits.shape)
    rounds = 0
    while True:
        rounds += 1
        # The lowest root among each node's neighbours.
        low = np.minimum.reduce(view, axis=1, where=bits, initial=n)
        hooks = low < roots
        if not hooks.any():
            return roots, rounds
        np.minimum.at(roots, roots[hooks], low[hooks])
        while True:
            jumped = roots[roots]
            if (jumped == roots).all():
                break
            roots[:] = jumped


def cluster_labels(g: BinaryMatrix) -> LabelVector:
    """Label the connected components of the graph of ``g``.

    ``g`` is a radius-graph adjacency or any power of one: symmetric with a
    set diagonal.  Components are found by hooking and pointer jumping
    with no matrix product (see the module docstring) and numbered 1, 2, ...
    in order of their lowest-index node.
    """
    bits = g.bits
    if not bits.any(axis=1).all():
        raise ValueError("matrix has an all-zero row")
    roots, _ = _component_roots(bits)
    # Roots are lowest indices, so root r's label is the number of roots <= r.
    return LabelVector((roots == np.arange(roots.size)).cumsum()[roots])


def build_cluster_table(lv: LabelVector) -> ClusterTable:
    """Count nodes per label and rank clusters by descending size."""
    counts = np.bincount(lv.labels)[1:]
    labels = np.arange(1, counts.size + 1)
    frequencies = dict(zip(labels.tolist(), counts.tolist()))
    ranking = tuple((np.lexsort((labels, -counts)) + 1).tolist())
    return ClusterTable(frequencies=frequencies, ranking=ranking)


def cluster_pointset(
    ps: PointSet, cfg: ClusteringConfig
) -> tuple[LabelVector, ClusterTable]:
    """Full pipeline: adjacency -> component labels -> cluster table.

    Deterministic in the input order.
    """
    lv = cluster_labels(build_adjacency(ps, cfg))
    return lv, build_cluster_table(lv)


def cluster_color_names(table: ClusterTable) -> dict[int, str]:
    """Map every label to its display color name.

    Ranks 1-3 are red, green, blue; later ranks cycle the extra palette.
    """
    return dict(zip(table.ranking, chain(RANK_COLOR_NAMES, cycle(EXTRA_COLOR_NAMES))))
