import re

import numpy as np
import pytest

from radclust.clustering import (
    ClusterTable,
    LabelVector,
    build_cluster_table,
    cluster_color_names,
    cluster_labels,
    cluster_pointset,
)
from radclust.geometry import BinaryMatrix, ClusteringConfig, PointSet, build_adjacency
from radclust.matpower import (
    bool_multiply,
    connected_components_oracle,
    mask_labels,
    power_fast,
    power_naive_oracle,
)
from radclust.scenarios import blob_points, chain_points, ring_points

from helpers import bfs_hop_distances, chain_bits, partition_sets, random_adjacency


# ---------------------------------------------------------------------------
# Label extraction from row masks
# ---------------------------------------------------------------------------


def test_chain_power_labels_single_cluster():
    g, _ = power_fast(BinaryMatrix(chain_bits(7)))
    lv = cluster_labels(g)
    assert lv.labels.tolist() == [1] * 7
    assert lv.n_clusters == 1


def test_identity_labels_are_singletons():
    lv = cluster_labels(BinaryMatrix(np.eye(2, dtype=bool)))
    assert lv.labels.tolist() == [1, 2]


def test_labels_match_component_oracle_on_random_points():
    for seed in range(50):
        coords = np.random.default_rng(seed).random((50, 2))
        ps = PointSet(coords)
        cfg = ClusteringConfig(radius=0.15)
        a = build_adjacency(ps, cfg)
        g, _ = power_fast(a)
        assert cluster_labels(g) == connected_components_oracle(a)


def test_mask_labels_split_an_under_powered_chain():
    # One squaring reaches 2 hops, short of the 6 a 12-node chain needs: the
    # mask scan then splits the chain, while its components stay whole.
    a = BinaryMatrix(chain_bits(12))
    under = bool_multiply(a, a)
    assert mask_labels(under).labels.tolist() == [1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8]
    assert cluster_labels(under).labels.tolist() == [1] * 12
    assert mask_labels(power_fast(a)[0]).labels.tolist() == [1] * 12


def test_labels_reject_zero_rows():
    bits = np.eye(3, dtype=bool)
    bits[1, 1] = False
    with pytest.raises(ValueError):
        cluster_labels(BinaryMatrix(bits))


def test_labels_reject_an_unset_diagonal():
    # Symmetric, no all-zero row, but node 0 is not adjacent to itself.
    with pytest.raises(ValueError, match="diagonal"):
        cluster_labels(BinaryMatrix([[0, 1], [1, 1]]))


def test_mask_labels_reject_zero_rows():
    bits = np.eye(3, dtype=bool)
    bits[1, 1] = False
    with pytest.raises(ValueError, match="all-zero row"):
        mask_labels(BinaryMatrix(bits))


def test_oracle_identity_and_all_ones():
    eye = BinaryMatrix(np.eye(4, dtype=bool))
    assert connected_components_oracle(eye).labels.tolist() == [1, 2, 3, 4]
    ones = BinaryMatrix(np.ones((5, 5), dtype=bool))
    assert connected_components_oracle(ones).labels.tolist() == [1] * 5


def test_oracle_chain_is_one_component():
    assert connected_components_oracle(BinaryMatrix(chain_bits(7))).n_clusters == 1


def test_oracle_rejects_asymmetric_matrix():
    bits = np.eye(3, dtype=bool)
    bits[0, 1] = True
    with pytest.raises(ValueError):
        connected_components_oracle(BinaryMatrix(bits))


# ---------------------------------------------------------------------------
# LabelVector / ClusterTable
# ---------------------------------------------------------------------------


def test_label_vector_requires_contiguous_positive_labels():
    with pytest.raises(ValueError):
        LabelVector(np.array([1, 3]))  # gap
    with pytest.raises(ValueError):
        LabelVector(np.array([0, 1]))  # zero is "unlabeled"
    with pytest.raises(ValueError):
        LabelVector(np.array([2, 3]))  # must start at 1
    lv = LabelVector(np.array([2, 1, 2]))
    assert lv.n_clusters == 2


@pytest.mark.parametrize(
    "labels, message",
    [
        ([1, 3, 3], "contiguous range 1..C"),  # gap within n
        ([1, 0, 1], "contiguous range 1..C"),
        ([1, -2], "contiguous range 1..C"),
        ([10**12], "contiguous range 1..C"),  # refused before any allocation
        ([2**62, 1], "contiguous range 1..C"),
        ([[1, 1], [1, 1]], "non-empty 1-d sequence"),
        ([], "non-empty 1-d sequence"),
    ],
)
def test_label_vector_refusals_keep_their_messages(labels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LabelVector(np.array(labels, dtype=np.int64))


def test_cluster_labels_number_components_by_lowest_index():
    # Roots (each node's lowest reachable index) numbered densely from 1 in
    # increasing order: what ``np.unique(roots, return_inverse=True)`` gives.
    rng = np.random.default_rng(13)
    for n, p in [(1, 0.0), (2, 0.0), (9, 0.1), (30, 0.03), (30, 0.08), (64, 0.02)]:
        bits = random_adjacency(rng, n, p)
        roots = (bfs_hop_distances(bits) <= n).argmax(axis=1)
        _, inverse = np.unique(roots, return_inverse=True)
        assert cluster_labels(BinaryMatrix(bits)).labels.tolist() == (inverse + 1).tolist()


def test_cluster_table_matches_a_sorted_count():
    rng = np.random.default_rng(5)
    for n, c in [(1, 1), (6, 3), (40, 7), (200, 60)]:
        labels = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, n - c)])
        table = build_cluster_table(LabelVector(rng.permutation(labels)))
        counts = {label: int((labels == label).sum()) for label in range(1, c + 1)}
        assert table.frequencies == counts
        assert table.ranking == tuple(sorted(counts, key=lambda k: (-counts[k], k)))
        assert all(type(k) is int and type(v) is int for k, v in table.frequencies.items())
        assert all(type(k) is int for k in table.ranking)


def test_cluster_table_sizes_ranking_and_colors():
    lv = LabelVector(np.array([1, 1, 2, 1, 3]))
    table = build_cluster_table(lv)
    assert table.frequencies == {1: 3, 2: 1, 3: 1}
    assert table.ranking == (1, 2, 3)
    assert table.sizes_ranked == (3, 1, 1)
    assert cluster_color_names(table) == {1: "red", 2: "green", 3: "blue"}


def test_cluster_table_breaks_size_ties_by_label():
    lv = LabelVector(np.array([1, 2, 2, 3, 3, 4]))
    table = build_cluster_table(lv)
    assert table.ranking == (2, 3, 1, 4)
    assert cluster_color_names(table) == {2: "red", 3: "green", 1: "blue", 4: "orange"}


def test_cluster_table_single_cluster():
    table = build_cluster_table(LabelVector(np.array([1, 1, 1])))
    assert table.frequencies == {1: 3}
    assert table.ranking == (1,)


def test_color_names_cycle_beyond_palette():
    # Label c has c nodes, so rank order is label 15 down to label 1.
    labels = np.repeat(np.arange(1, 16), np.arange(1, 16))
    table = build_cluster_table(LabelVector(labels))
    names = cluster_color_names(table)
    assert table.ranking == tuple(range(15, 0, -1))
    assert [names[c] for c in table.ranking] == [
        "red", "green", "blue",
        "orange", "purple", "brown", "deeppink", "teal",
        "olive", "navy", "maroon", "darkcyan", "goldenrod",
        "orange", "purple",
    ]  # fmt: skip
    assert sorted(names) == list(range(1, 16))


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_chain_single_cluster():
    ps = PointSet([[float(i), 0.0] for i in range(7)])
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=1.5))
    assert lv.labels.tolist() == [1] * 7
    assert table.sizes_ranked == (7,)


def test_pipeline_single_point():
    lv, table = cluster_pointset(
        PointSet([[0.0, 0.0]]), ClusteringConfig(radius=1.0)
    )
    assert lv.labels.tolist() == [1]
    assert table.frequencies == {1: 1}


def test_pipeline_matches_oracle_many_random_sets():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 90))
        coords = rng.random((n, 2))
        for radius in (0.05, 0.12, 0.3):
            ps = PointSet(coords)
            cfg = ClusteringConfig(radius=radius)
            lv, table = cluster_pointset(ps, cfg)
            oracle = connected_components_oracle(build_adjacency(ps, cfg))
            assert lv == oracle
            assert sum(table.frequencies.values()) == n


def test_pipeline_permutation_equivariant():
    rng = np.random.default_rng(8)
    coords = rng.random((40, 2))
    cfg = ClusteringConfig(radius=0.18)
    lv, _ = cluster_pointset(PointSet(coords), cfg)
    perm = rng.permutation(40)
    lv_p, _ = cluster_pointset(PointSet(coords[perm]), cfg)
    # the partition of underlying rows must match after undoing the shuffle
    original = partition_sets(lv.labels.tolist())
    unshuffled = [0] * 40
    for new_row, old_row in enumerate(perm):
        unshuffled[old_row] = int(lv_p.labels[new_row])
    assert partition_sets(unshuffled) == original


def test_pipeline_groups_by_connectivity_not_shape():
    # A ring, a chain, and a blob of equal point count each come out as one
    # cluster: nothing in the pipeline favours round or centroid-tight groups.
    radius = 1.0
    shapes = [
        ring_points(24, ring_radius=3.0),
        chain_points(24, spacing=0.9),
        blob_points(24, spacing=0.6, jitter=0.15, seed=4),
    ]
    for ps in shapes:
        lv, _ = cluster_pointset(ps, ClusteringConfig(radius=radius))
        assert lv.n_clusters == 1


def test_naive_and_fast_powers_give_identical_partitions():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 65))
        a = BinaryMatrix(random_adjacency(rng, n, 0.06))
        fast_g, _ = power_fast(a)
        naive_g = power_naive_oracle(a)
        assert mask_labels(fast_g) == mask_labels(naive_g)


def test_cluster_table_is_frozen():
    table = build_cluster_table(LabelVector(np.array([1, 1])))
    assert isinstance(table, ClusterTable)
    with pytest.raises(AttributeError):
        table.ranking = ()
