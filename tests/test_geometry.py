import math
import tracemalloc

import numpy as np
import pytest

import radclust.geometry as geometry
from radclust.clustering import cluster_pointset
from radclust.geometry import (
    SCALE_MAX,
    SCALE_MIN,
    ClusteringConfig,
    PointSet,
    build_adjacency,
)

from helpers import pairwise_adjacency


def test_point_rejects_bad_coords():
    # The message names the first point holding a NaN or an infinity.
    cases = [
        ([[1.0, float("nan")]], ["a"], "point 'a': coordinates must be finite"),
        ([[0.0], [float("inf")]], None, "point 1: coordinates must be finite"),
        ([[0.0, 0.0], [1.0, -float("inf")], [float("nan"), 0.0]], [5, 7, 9], "point 7:"),
    ]
    for coords, ids, message in cases:
        with pytest.raises(ValueError, match=message):
            PointSet(coords, ids)


@pytest.mark.parametrize(
    "coords, ids, message",
    [
        (np.empty((0, 2)), None, "at least one point"),
        (np.empty((3, 0)), None, "point 0: needs at least one coordinate"),
        ([1.0, 2.0], None, "2-d"),
        (np.zeros((2, 2, 2)), None, "2-d"),
        ([[0.0, 0.0], [1.0, 0.0]], [0], "got 1 ids for 2 points"),
        ([[0.0, 0.0]], [0, 1], "got 2 ids for 1 points"),
    ],
)
def test_pointset_rejects_bad_shape_or_ids(coords, ids, message):
    with pytest.raises(ValueError, match=message):
        PointSet(coords, ids)


def test_point_coords_are_read_only():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    ps = PointSet(source)
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 9.0
    # The set holds a copy: changing the caller's array does not reach it.
    source[0, 0] = 9.0
    assert ps.coords.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ps.coords.dtype == np.float64


def test_pointset_assigns_sequential_ids():
    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert ps.ids == (0, 1, 2)
    assert len(ps) == 3
    assert ps.dimension == 2


def test_pointset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate point id 3"):
        PointSet([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [4, 3, 5, 3])
    with pytest.raises(ValueError, match="duplicate point id 'b'"):
        PointSet([(0.0,), (1.0,), (2.0,)], ["a", "b", "b"])


def test_pointset_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        PointSet([(0.0, 0.0), (1.0, 0.0, 0.0)])


def test_pointset_rejects_empty():
    with pytest.raises(ValueError):
        PointSet([])


@pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan")])
def test_config_rejects_non_positive_or_non_finite_radius(radius):
    with pytest.raises(ValueError):
        ClusteringConfig(radius=radius)


@pytest.mark.parametrize("radius", [1e-200, SCALE_MIN / 2, SCALE_MAX * 2, 1e200])
def test_config_rejects_radius_outside_safe_range(radius):
    with pytest.raises(ValueError, match="safe range"):
        ClusteringConfig(radius=radius)


def test_config_accepts_safe_range_ends():
    assert ClusteringConfig(radius=SCALE_MIN).radius == SCALE_MIN
    assert ClusteringConfig(radius=SCALE_MAX).radius == SCALE_MAX


@pytest.mark.parametrize("value", [2e-200, -2e-200, SCALE_MIN / 2, 1e200, -SCALE_MAX * 2])
def test_adjacency_rejects_coordinates_outside_safe_range(value):
    # 2e-200 apart at r = 1e-200 used to form one cluster: the squared
    # difference underflowed to 0.  Near 1e200 the squares overflow to inf.
    ps = PointSet([[0.0, 0.0], [value, 0.0]])
    with pytest.raises(ValueError, match=r"point 1: coordinate .* safe magnitude range"):
        build_adjacency(ps, ClusteringConfig(radius=1.0))


def test_adjacency_is_exact_at_the_ends_of_the_safe_range():
    # Zero coordinates are allowed; pairs at the smallest and largest scale
    # keep the strict distance < r predicate, including a pair exactly at r.
    r_lo = ClusteringConfig(radius=SCALE_MIN)
    near = PointSet([[0.0], [SCALE_MIN], [SCALE_MIN * 1.5], [SCALE_MIN * 4]])
    assert cluster_pointset(near, r_lo)[0].labels.tolist() == [1, 2, 2, 3]
    r_hi = ClusteringConfig(radius=SCALE_MAX)
    far = PointSet([[-SCALE_MAX, 0.0], [-SCALE_MAX / 2, 0.0], [SCALE_MAX / 2, 0.0]])
    assert cluster_pointset(far, r_hi)[0].labels.tolist() == [1, 1, 2]


def test_chain_adjacency_is_tridiagonal():
    # Seven collinear points at unit spacing: radius 1.5 reaches exactly the
    # immediate neighbours on each side.
    coords = [[float(i), 0.0] for i in range(7)]
    ps = PointSet(coords)
    adj = build_adjacency(ps, ClusteringConfig(radius=1.5))
    expected = np.zeros((7, 7), dtype=bool)
    for i in range(7):
        for j in range(7):
            expected[i, j] = abs(i - j) <= 1
    assert np.array_equal(adj.to_array(), expected)


def test_adjacency_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        coords = rng.random((n, 2)) * 3.0
        radius = float(rng.uniform(0.1, 1.5))
        ps = PointSet(coords)
        got = build_adjacency(ps, ClusteringConfig(radius=radius)).to_array()
        assert np.array_equal(got, pairwise_adjacency(coords, radius))


def test_single_point_adjacency():
    ps = PointSet([[4.0, -2.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=0.001))
    assert np.array_equal(adj.to_array(), [[True]])


def test_distance_exactly_at_radius_is_not_adjacent():
    # The threshold is strict: d < r, so d == r stays disconnected.
    ps = PointSet([[0.0, 0.0], [1.5, 0.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=1.5)).to_array()
    assert not adj[0, 1] and not adj[1, 0]
    assert adj[0, 0] and adj[1, 1]
    # 3-4-5 again, at the boundary.
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=5.0)).to_array()
    assert not adj[0, 1]


def test_adjacency_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(123)
    for seed in range(10):
        coords = np.random.default_rng(seed).random((25, 3))
        ps = PointSet(coords)
        bits = build_adjacency(ps, ClusteringConfig(radius=0.4)).to_array()
        assert np.array_equal(bits, bits.T)
        assert bits.diagonal().all()
    del rng


def test_adjacency_monotonic_in_radius():
    coords = np.random.default_rng(5).random((30, 2))
    ps = PointSet(coords)
    small = build_adjacency(ps, ClusteringConfig(radius=0.2)).to_array()
    large = build_adjacency(ps, ClusteringConfig(radius=0.5)).to_array()
    assert not (small & ~large).any()


def test_adjacency_invariant_under_rigid_motion():
    rng = np.random.default_rng(99)
    radius = 0.3
    for _ in range(10):
        coords = rng.random((20, 2))
        # Skip configurations with a pair sitting numerically on the
        # threshold; rotation can legitimately flip those.
        diffs = coords[:, None, :] - coords[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=-1))
        if (np.abs(dists - radius) < 1e-9).any():
            continue
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = coords @ rot.T + np.array([5.0, -3.0])
        cfg = ClusteringConfig(radius=radius)
        before = build_adjacency(PointSet(coords), cfg).to_array()
        after = build_adjacency(PointSet(moved), cfg).to_array()
        assert np.array_equal(before, after)


def test_adjacency_beyond_physical_memory_fails_before_allocating():
    # 10**6 points are 8 MB of coordinates but would need 2 * 10**12 bytes
    # for the boolean matrix and its copy.
    ps = PointSet(np.zeros((10**6, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000 points need 2000000000000 bytes"):
            build_adjacency(ps, ClusteringConfig(radius=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_adjacency_memory_guard_boundary(monkeypatch):
    ps = PointSet(np.arange(5.0)[:, None])
    cfg = ClusteringConfig(radius=1.5)
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 2 * 5 * 5)
    assert build_adjacency(ps, cfg).n == 5
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 2 * 5 * 5 - 1)
    with pytest.raises(ValueError, match="5 points need 50 bytes"):
        build_adjacency(ps, cfg)


def _memory_with_cgroup_files(monkeypatch, tmp_path, v2, v1):
    """``_physical_memory`` on an 8 GiB machine with these limit file contents.

    ``None`` leaves the file missing.
    """
    monkeypatch.setattr(geometry.os, "sysconf", {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}.get)
    paths = []
    for name, text in [("memory.max", v2), ("memory.limit_in_bytes", v1)]:
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        paths.append(str(path))
    monkeypatch.setattr(geometry, "_CGROUP_LIMIT_FILES", tuple(paths))
    return geometry._physical_memory.__wrapped__()


@pytest.mark.parametrize(
    "v2, v1, expected",
    [
        (None, None, 2**33),
        ("max\n", None, 2**33),
        ("1073741824\n", None, 2**30),
        ("max\n", "2147483648\n", 2**31),
        (None, "9223372036854771712\n", 2**33),  # v1 "no limit"
        ("3000000000\n", "2000000000\n", 2 * 10**9),
        (str(2**33), "garbage", 2**33),
        (None, "\xff\xfe", 2**33),
    ],
    ids=["none", "v2-max", "v2", "v1", "v1-unlimited", "both", "at-physical", "undecodable"],
)
def test_memory_limit_takes_a_lower_cgroup_limit(monkeypatch, tmp_path, v2, v1, expected):
    assert _memory_with_cgroup_files(monkeypatch, tmp_path, v2, v1) == expected


def test_memory_limit_skips_an_unreadable_limit(monkeypatch, tmp_path):
    # A directory in place of the file cannot be read as one.
    (tmp_path / "memory.max").mkdir()
    assert _memory_with_cgroup_files(monkeypatch, tmp_path, None, "4096\n") == 4096
