import math

import numpy as np
import pytest

from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig, build_adjacency
from radclust.matpower import connected_components_oracle
from radclust.scenarios import (
    DENSITY_PER_DISK,
    SCENARIO_KINDS,
    blob_points,
    chain_points,
    dense_core_with_scatter_points,
    field_side,
    forked_branch_points,
    generate,
    ring_points,
    shape_showcase,
    thick_chain_points,
    uniform_random_points,
)


def _n_clusters(ps, radius):
    lv, _ = cluster_pointset(ps, ClusteringConfig(radius=radius))
    return lv.n_clusters


# ---------------------------------------------------------------------------
# Determinism of the generators
# ---------------------------------------------------------------------------


def test_generate_is_bit_for_bit_deterministic():
    params = {"n": 30, "spacing": 1.0, "jitter": 0.2}
    a = generate("blob", params, seed=5)
    b = generate("blob", params, seed=5)
    assert np.array_equal(a.coords, b.coords)
    assert a.ids == b.ids


def test_generate_seed_changes_stochastic_output():
    base = {"n": 30, "spacing": 1.0, "jitter": 0.2}
    a = generate("blob", base, seed=1)
    b = generate("blob", base, seed=2)
    assert not np.array_equal(a.coords, b.coords)


def test_generate_seed_ignored_for_deterministic_kinds():
    a = generate("chain", {"n": 5, "spacing": 1.0}, seed=1)
    b = generate("chain", {"n": 5, "spacing": 1.0}, seed=99)
    assert np.array_equal(a.coords, b.coords)


# ---------------------------------------------------------------------------
# Guaranteed cluster structure per kind
# ---------------------------------------------------------------------------


def test_chain_below_radius_is_one_cluster():
    ps = chain_points(14, spacing=0.9)
    assert len(ps) == 14
    assert _n_clusters(ps, 1.0) == 1


def test_chain_above_radius_is_all_singletons():
    ps = chain_points(6, spacing=1.1)
    assert _n_clusters(ps, 1.0) == 6


def test_thick_chain_one_cluster_when_diagonal_fits():
    ps = thick_chain_points(13, spacing=0.45, width=0.4)
    assert math.hypot(0.45, 0.4) < 1.0
    assert len(ps) == 13
    assert _n_clusters(ps, 1.0) == 1


def test_blob_one_cluster_within_jitter_bound():
    for seed in range(5):
        ps = blob_points(19, spacing=0.6, jitter=0.15, seed=seed)
        assert math.hypot(0.6 + 2 * 0.15, 2 * 0.15) < 1.0
        assert _n_clusters(ps, 1.0) == 1


def test_ring_one_cluster_and_hollow_centroid():
    # 64 points on a circle of 10 radii: chord 2*10*sin(pi/64) ~ 0.98 < r,
    # so the ring is one cluster even though no point is near its centroid.
    ps = ring_points(64, ring_radius=10.0)
    assert _n_clusters(ps, 1.0) == 1
    centroid = ps.coords.mean(axis=0)
    assert np.allclose(centroid, [0.0, 0.0], atol=1e-12)
    gaps = np.sqrt(((ps.coords - centroid) ** 2).sum(axis=1))
    assert (gaps > 1.0).all()


def test_forked_branch_single_cluster_with_wide_fork():
    ps = forked_branch_points(4, 6, 4, spacing=0.5, height=1.0)
    assert len(ps) == 4 + 2 * 6 + 4
    assert _n_clusters(ps, 1.0) == 1
    # mid-fork the two arcs sit about 2*height apart -- far beyond r
    ys = ps.coords[:, 1]
    assert ys.max() - ys.min() > 1.5


def test_dense_core_is_rank_one_cluster_across_seeds():
    cfg = ClusteringConfig(radius=1.0)
    for seed in range(30):
        ps = dense_core_with_scatter_points(
            40, 20, core_radius=0.45, scatter_inner=2.0, scatter_outer=12.0, seed=seed
        )
        lv, table = cluster_pointset(ps, cfg)
        assert lv == connected_components_oracle(build_adjacency(ps, cfg))
        top = table.ranking[0]
        members = set(np.flatnonzero(lv.labels == top).tolist())
        assert members >= set(range(40))
        assert table.frequencies[top] >= 40


def test_dense_core_rejects_overlapping_radii():
    with pytest.raises(ValueError):
        dense_core_with_scatter_points(10, 5, 1.0, 0.5, 2.0)


def test_uniform_random_bounds_and_determinism():
    ps = uniform_random_points(200, side=7.5, seed=3)
    assert len(ps) == 200
    assert (ps.coords >= 0.0).all() and (ps.coords < 7.5).all()
    again = uniform_random_points(200, side=7.5, seed=3)
    assert np.array_equal(ps.coords, again.coords)


def test_field_side_gives_requested_density():
    side = field_side(100, radius=1.0, points_per_disk=2.0)
    assert side == pytest.approx(math.sqrt(100 * math.pi / 2.0))
    # plug back: expected points per disk = n * pi r^2 / side^2
    assert 100 * math.pi / side**2 == pytest.approx(2.0)


def test_density_levels_change_cluster_sizes():
    # Soft statistical check: at 2 expected points per disk the largest
    # cluster is much bigger, on average, than at 0.5.
    n = 80
    largest = {}
    for name in ("low", "medium"):
        side = field_side(n, 1.0, DENSITY_PER_DISK[name])
        sizes = []
        for seed in range(30):
            ps = uniform_random_points(n, side, seed=seed)
            _, table = cluster_pointset(ps, ClusteringConfig(radius=1.0))
            sizes.append(table.sizes_ranked[0])
        largest[name] = float(np.mean(sizes))
    assert largest["medium"] > 2.0 * largest["low"]


def test_shape_showcase_partition():
    ps = shape_showcase(radius=1.0, seed=0)
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=1.0))
    assert lv.n_clusters == 7
    assert table.sizes_ranked == (19, 14, 13, 10, 8, 3, 1)
    assert table.sizes_ranked[:3] == (19, 14, 13)


def test_shape_showcase_scales_with_radius():
    ps = shape_showcase(radius=2.5, seed=1)
    _, table = cluster_pointset(ps, ClusteringConfig(radius=2.5))
    assert table.sizes_ranked == (19, 14, 13, 10, 8, 3, 1)


# ---------------------------------------------------------------------------
# Kind dispatch and validation
# ---------------------------------------------------------------------------


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        generate("spiral", {})


def test_generate_refuses_a_seed_in_params():
    with pytest.raises(ValueError, match="seed argument"):
        generate("blob", {"n": 5, "spacing": 1.0, "jitter": 0.1, "seed": 3}, seed=4)


def test_generate_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="chain"):
        generate("chain", {"n": 5, "pitch": 1.0})


@pytest.mark.parametrize(
    "kind,params",
    [
        ("chain", {"n": 0, "spacing": 1.0}),
        ("chain", {"n": 5, "spacing": -1.0}),
        ("ring", {"n": 8, "ring_radius": float("nan")}),
        ("blob", {"n": 3, "spacing": 1.0, "jitter": 0.0}),
    ],
)
def test_generate_rejects_bad_values(kind, params):
    with pytest.raises(ValueError):
        generate(kind, params, seed=0)


def test_scenario_kind_registry():
    assert set(SCENARIO_KINDS) == {
        "chain",
        "thick-chain",
        "blob",
        "ring",
        "forked-branch",
        "dense-core-with-scatter",
        "uniform-random",
    }
    assert set(DENSITY_PER_DISK) == {"low", "medium", "high"}
    assert DENSITY_PER_DISK["low"] < DENSITY_PER_DISK["medium"] < DENSITY_PER_DISK["high"]
