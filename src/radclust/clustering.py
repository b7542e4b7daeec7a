"""Connected-component labels and size-ranked cluster tables.

The clusters are the connected components of the radius graph.  The paper
reaches them through a covering matrix power (see ``matpower``) read by a
mask scan; ``cluster_labels`` finds the same components straight from the
adjacency matrix, with no matrix product.  Any power ``A**e`` (``e >= 1``)
of a symmetric adjacency with a set diagonal has the components of ``A``
itself, so both routes give one partition.

``cluster_labels`` runs min-label hooking with pointer jumping (Shiloach &
Vishkin 1982) on a forest of parent pointers, in rounds.  At the start of a
round every tree is a star: each node points at its tree's root, the lowest
index in the tree.  One pass over the matrix rows gives each node the lowest
root among its neighbours, and each root whose star sees a lower root hooks
onto the lowest one it sees.  Hooks only go to lower roots, so no cycle can
form.  Pointer jumping then turns every tree back into a star.  A round
with no hook ends the loop; every component is then one star rooted at its
lowest index.  On a covering power, where each component is a clique, the
first round finishes the work and the second finds nothing to hook.

Round bound: a star that still has a neighbour outside it either sees a
lower root and hooks, or sees only higher roots.  In the second case each
of those neighbouring stars sees its root and hooks, onto it or onto a root
lower still, so the star either gains a child in this round or sees a lower
root, and hooks, in the next.  Over any two rounds every star of an
unfinished component thus merges with another, and the component's star
count at least halves.  Starting from n one-node stars, at most
``2 floor(log2 n)`` rounds hook and one more finds nothing to hook: at most
``2 floor(log2 n) + 1`` rounds in all.  Each round reads the ``n x n``
matrix once, in row blocks of a fixed budget, so the step costs
``O(n**2 log n)`` time in the worst case and never holds more than one
block's temporary.

Label numbers are dense, starting at 1, in order of each cluster's
lowest-index node.  ``mask_labels`` keeps the paper's mask scan for checking
the power method, and ``connected_components_oracle`` computes the partition
by plain graph traversal as independent ground truth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import _CHUNK_ELEMENTS, ClusteringConfig, PointSet, build_adjacency
from .matpower import BinaryMatrix

__all__ = [
    "LabelVector",
    "ClusterTable",
    "cluster_labels",
    "mask_labels",
    "connected_components_oracle",
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


def _row_max(bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Largest ``values[t]`` over the set bits t of each row of ``bits``.

    Rows are read in blocks of about ``_CHUNK_ELEMENTS`` entries, so the
    temporary stays small at any n.  Multiplying by the 0/1 row (0 where no
    bit is set) instead of selecting with ``np.where`` keeps the inner loop
    free of branches, several times faster on irregular rows.
    """
    n = bits.shape[0]
    step = max(1, _CHUNK_ELEMENTS // n)
    out = np.empty(n, dtype=values.dtype)
    for start in range(0, n, step):
        block = slice(start, start + step)
        out[block] = (bits[block] * values).max(axis=1)
    return out


def _component_roots(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Hook stars onto lower roots until none can (see the module docstring).

    Returns ``roots``, where ``roots[v]`` is the lowest index in v's
    component, and the number of rounds run, at most ``2 floor(log2 n) + 1``.
    """
    n = bits.shape[0]
    # Node indices and n itself fit the narrowest unsigned dtype.
    dtype = np.min_scalar_type(n)
    top = dtype.type(n)
    roots = np.arange(n, dtype=dtype)
    rounds = 0
    while True:
        rounds += 1
        # The lowest root among each node's neighbours, as n minus the
        # highest n - root.
        low = top - _row_max(bits, top - roots)
        hooks = low < roots
        if not hooks.any():
            return roots, rounds
        np.minimum.at(roots, roots[hooks], low[hooks])
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped


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
    _, labels = np.unique(roots, return_inverse=True)
    return LabelVector(labels + 1)


def mask_labels(g: BinaryMatrix) -> LabelVector:
    """The paper's mask-scan labels of a power matrix, in one vectorised pass.

    The scan walks the nodes in index order; each still-unlabeled node seeds
    a new cluster whose mask is its row, and every later unlabeled node
    whose row shares a set bit with the mask joins it.  When ``g`` covers at
    least ``floor(n / 2)`` hops, rows i and j share a bit exactly when i and
    j are in one component, so the lowest row sharing a bit with row j is
    the lowest index of j's component: the seed the scan labels j from.
    This computes that row for every j at once: ``first[t]`` is the lowest
    row with bit t set and ``seed[j]`` the least ``first[t]`` over row j's
    bits; distinct seeds are ranked densely.

    On an under-powered matrix the result need not be the components: a
    component longer than the matrix's reach can split.  That keeps the
    paper's exponent claim testable (``radclust bench``, the acceptance
    tests); ``cluster_labels`` is the clustering path.
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
    """Full pipeline: adjacency -> component labels -> cluster table.

    Deterministic in the input order.
    """
    lv = cluster_labels(build_adjacency(ps, cfg))
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
