import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radclust.geometry as geometry
from radclust.clustering import cluster_pointset
from radclust.geometry import (
    SCALE_MAX,
    SCALE_MIN,
    ClusteringConfig,
    PointSet,
    build_adjacency,
)

from helpers import grid_candidate_counts, pairwise_adjacency


def test_point_rejects_bad_coords():
    # The message names the first point, in row order, holding a NaN, an
    # infinity or a magnitude outside the safe range; a row with a
    # non-finite value is reported as such.
    nan, inf = float("nan"), float("inf")
    cases = [
        ([[1.0, nan]], ["a"], "point 'a': coordinates must be finite"),
        ([[0.0], [inf]], None, "point 1: coordinates must be finite"),
        ([[0.0, 0.0], [1.0, -inf], [nan, 0.0]], [5, 7, 9], "point 7:"),
        ([[1e-200, inf]], None, "point 0: coordinates must be finite"),
        ([[0.0, 0.0], [0.0, 1e-200], [nan, 0.0]], None, "point 1: coordinate 1e-200 is outside"),
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
    # The point set refuses them, so no adjacency is ever built from them.
    with pytest.raises(ValueError, match=r"point 1: coordinate .* safe magnitude range"):
        PointSet([[0.0, 0.0], [value, 0.0]])


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
    assert np.array_equal(adj.bits, expected)


def test_adjacency_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        coords = rng.random((n, 2)) * 3.0
        radius = float(rng.uniform(0.1, 1.5))
        ps = PointSet(coords)
        got = build_adjacency(ps, ClusteringConfig(radius=radius)).bits
        assert np.array_equal(got, pairwise_adjacency(coords, radius))


def test_single_point_adjacency():
    ps = PointSet([[4.0, -2.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=0.001))
    assert np.array_equal(adj.bits, [[True]])


def test_distance_exactly_at_radius_is_not_adjacent():
    # The threshold is strict: d < r, so d == r stays disconnected.
    ps = PointSet([[0.0, 0.0], [1.5, 0.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=1.5)).bits
    assert not adj[0, 1] and not adj[1, 0]
    assert adj[0, 0] and adj[1, 1]
    # 3-4-5 again, at the boundary.
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    adj = build_adjacency(ps, ClusteringConfig(radius=5.0)).bits
    assert not adj[0, 1]


# Pairs drawn from np.random.default_rng(0), x then y, whose squares summed
# left to right and summed pairwise (numpy's sum along a contiguous row of 8
# or more) give distances an ulp or so apart; r is the larger of the two.
# Pairwise, the pair is an edge at r for d = 8 and 16 and not for d = 9;
# left to right it is the other way round.
_SUM_ORDER_CASES = [
    (
        [0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
         0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
         0.6066357757671799, 0.7294965609839984],
        [0.5436249914654229, 0.9350724237877682, 0.8158535541215322,
         0.002738500170148095, 0.8574042765875693, 0.033585575305464355,
         0.7296554464299441, 0.17565562060255901],
        1.4658469730588726,
    ),
    (
        [0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
         0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
         0.6066357757671799, 0.7294965609839984, 0.5436249914654229],
        [0.9350724237877682, 0.8158535541215322, 0.002738500170148095,
         0.8574042765875693, 0.033585575305464355, 0.7296554464299441,
         0.17565562060255901, 0.8631789223498866, 0.5414612202490917],
        1.3930713659669425,
    ),
    (
        [0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
         0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
         0.6066357757671799, 0.7294965609839984, 0.5436249914654229,
         0.9350724237877682, 0.8158535541215322, 0.002738500170148095,
         0.8574042765875693, 0.033585575305464355, 0.7296554464299441,
         0.17565562060255901],
        [0.8631789223498866, 0.5414612202490917, 0.2997118905373848,
         0.42268722119765845, 0.028319671145462966, 0.12428327649956394,
         0.6706244146936303, 0.6471895115742501, 0.6153851114812539,
         0.38367755426188344, 0.997209935789211, 0.9808353387762301,
         0.6855419844806947, 0.6504592762678163, 0.6884467305709401,
         0.3889214239791038],
        1.833465853874897,
    ),
]


@pytest.mark.parametrize("x, y, r", _SUM_ORDER_CASES, ids=["d=8", "d=9", "d=16"])
def test_adjacency_adds_the_squares_left_to_right(x, y, r):
    ps = PointSet([x, y])
    for radius in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
        got = build_adjacency(ps, ClusteringConfig(radius)).bits
        assert np.array_equal(got, pairwise_adjacency([x, y], radius))
    # Left to right, the pair is an edge at r only for d = 9.
    assert pairwise_adjacency([x, y], r)[0, 1] == (len(x) == 9)


def test_adjacency_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(123)
    for seed in range(10):
        coords = np.random.default_rng(seed).random((25, 3))
        ps = PointSet(coords)
        bits = build_adjacency(ps, ClusteringConfig(radius=0.4)).bits
        assert np.array_equal(bits, bits.T)
        assert bits.diagonal().all()
    del rng


def test_adjacency_monotonic_in_radius():
    coords = np.random.default_rng(5).random((30, 2))
    ps = PointSet(coords)
    small = build_adjacency(ps, ClusteringConfig(radius=0.2)).bits
    large = build_adjacency(ps, ClusteringConfig(radius=0.5)).bits
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
        before = build_adjacency(PointSet(coords), cfg).bits
        after = build_adjacency(PointSet(moved), cfg).bits
        assert np.array_equal(before, after)


def test_adjacency_beyond_physical_memory_fails_before_allocating():
    # 10**6 points are 8 MB of coordinates but would need 10**12 bytes for
    # the boolean matrix.
    ps = PointSet(np.zeros((10**6, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000 points need 1000000000000 bytes"):
            build_adjacency(ps, ClusteringConfig(radius=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_adjacency_memory_guard_boundary(monkeypatch):
    ps = PointSet(np.arange(5.0)[:, None])
    cfg = ClusteringConfig(radius=1.5)
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 5 * 5)
    assert build_adjacency(ps, cfg).n == 5
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 5 * 5 - 1)
    with pytest.raises(ValueError, match="5 points need 25 bytes"):
        build_adjacency(ps, cfg)


def test_adjacency_holds_one_n_by_n_matrix():
    # The N = 8000 chain's 64 MB matrix is frozen and wrapped, not copied.
    n = 8000
    ps = PointSet(np.arange(n, dtype=np.float64)[:, None])
    tracemalloc.start()
    try:
        a = build_adjacency(ps, ClusteringConfig(radius=1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(a.bits.sum()) == 3 * n - 2
    assert peak <= n * n + 4 * 2**20


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


@st.composite
def _grid_inputs(draw):
    """Coordinates and a cell side: floors equal, 1 apart and far apart.

    Rows come from a small pool, so duplicate points are common; values
    include exact cell boundaries, floors near 2**53 (where floats step by
    2) and magnitudes near 2**500 over tiny sides (floors near 2**1000).
    """
    d = draw(st.integers(1, 5))
    side = draw(st.sampled_from([2.0**-500, 1e-3, 0.7, 1.0, 3.0, 2.0**400]))
    value = st.one_of(
        st.integers(-8, 8).map(lambda k: k * side / 2),
        st.floats(-4.0, 4.0).map(lambda u: u * side),
        st.integers(-3, 3).map(lambda k: (2.0**53 + k) * side),
        st.sampled_from([0.0, SCALE_MIN, -SCALE_MIN, SCALE_MAX, -SCALE_MAX, SCALE_MAX * (1 - 2**-53)]),
    )
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return np.array(rows), side


@settings(max_examples=300, deadline=None)
@given(_grid_inputs())
def test_cell_pairs_match_the_reference_grid_numbering(case):
    # Bit-equality tests cannot see a numbering that stops skipping between
    # floors far apart: it only adds candidates.  The candidate multiset can.
    coords, side = case
    n = coords.shape[0]
    pairs = geometry._CellPairs(coords, side)
    i, j = pairs.batch(0, pairs.total)
    seen = np.zeros((n, n), dtype=np.int64)
    np.add.at(seen, (i, j), 1)
    want = grid_candidate_counts(coords, side)
    assert pairs.total == want.sum() // 2
    assert np.array_equal(seen + seen.T, want)


def _diagonal(n):
    """``n`` 3-d points on the diagonal, 2 apart on every axis.

    At side 1 each axis numbers its ``n`` cells 1, 3, ..., 2n - 1, which
    spans ``2n + 1`` numbers with the offsets: ``(2n + 1)**3`` keys.
    """
    return np.repeat(np.arange(n, dtype=np.float64)[:, None] * 2.0, 3, axis=1)


def test_cell_keys_fit_int64_below_2_to_the_20_diagonal_points():
    n = 2**20 - 1
    key, stride = geometry._cell_keys(_diagonal(n), 1.0)
    assert stride.tolist() == [(2 * n + 1) ** 2, 2 * n + 1, 1]
    assert int(key[-1]) == (2 * n - 1) * sum(stride.tolist()) < 2**63
    assert (key[1:] > key[:-1]).all()


def test_cell_keys_refuse_a_grid_past_int64():
    # (2**21 + 1)**3 keys: slot @ stride would wrap around silently.
    with pytest.raises(ValueError, match="too many for int64 cell keys"):
        geometry._cell_keys(_diagonal(2**20), 1.0)


# ---------------------------------------------------------------------------
# exact invariances of the predicate, at the boundary
# ---------------------------------------------------------------------------


def _distance(x, y):
    """The predicate's distance: the squared differences added left to right."""
    total = 0.0
    for a, b in zip(x, y):
        total += (a - b) * (a - b)
    return math.sqrt(total)


@st.composite
def _boundary_cases(draw, min_d=1):
    """Points in [0, 1)**d, and radii at one pair's distance and an ulp either side.

    The coordinates are multiples of ``2**-53``, so every scaled value below
    stays in the safe range and no square is subnormal.
    """
    d = draw(st.sampled_from([d for d in (1, 2, 3, 5, 8, 9, 16) if d >= min_d]))
    n = draw(st.integers(2, 6))
    coords = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, d))
    i, j = draw(st.permutations(range(n)))[:2]
    r = _distance(coords[i].tolist(), coords[j].tolist())
    return coords, (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf))


def _assert_same_graph(coords, moved, radii, scale=1.0):
    before, after = PointSet(coords), PointSet(moved)
    for r in radii:
        cfg, moved_cfg = ClusteringConfig(r), ClusteringConfig(r * scale)
        assert build_adjacency(before, cfg) == build_adjacency(after, moved_cfg)
        assert np.array_equal(
            cluster_pointset(before, cfg)[0].labels, cluster_pointset(after, moved_cfg)[0].labels
        )


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(), k=st.integers(-40, 40))
def test_labels_do_not_change_when_coordinates_and_r_scale_by_a_power_of_two(case, k):
    # Every operation of the predicate commutes with an exact power-of-two scale.
    coords, radii = case
    _assert_same_graph(coords, coords * 2.0**k, radii, scale=2.0**k)


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(), data=st.data())
def test_labels_do_not_change_when_axes_are_negated(case, data):
    # Rounding to nearest is symmetric: fl(-x - (-y)) = -fl(x - y), equal squares.
    coords, radii = case
    d = coords.shape[1]
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    _assert_same_graph(coords, coords * np.array(signs), radii)


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(min_d=2))
def test_labels_do_not_change_when_axes_0_and_1_swap(case):
    # Axes 0 and 1 meet only in the sum's first addition, which commutes.
    coords, radii = case
    order = [1, 0, *range(2, coords.shape[1])]
    _assert_same_graph(coords, coords[:, order], radii)


def _numbered_by_lowest_index(labels):
    """Labels renumbered 1, 2, ... in order of each cluster's lowest row."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.ravel()] + 1


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(), data=st.data())
def test_adjacency_and_labels_permute_with_the_rows(case, data):
    # Each entry is one pair's predicate, which reads only that pair's rows.
    coords, radii = case
    perm = np.array(data.draw(st.permutations(range(coords.shape[0]))))
    before, after = PointSet(coords), PointSet(coords[perm])
    for r in radii:
        cfg = ClusteringConfig(r)
        bits = build_adjacency(before, cfg).bits
        assert np.array_equal(build_adjacency(after, cfg).bits, bits[np.ix_(perm, perm)])
        labels = cluster_pointset(before, cfg)[0].labels
        assert np.array_equal(
            cluster_pointset(after, cfg)[0].labels, _numbered_by_lowest_index(labels[perm])
        )


@settings(max_examples=200, deadline=None)
@given(case=_boundary_cases(), data=st.data())
def test_a_coincident_point_takes_its_twins_row_and_label_and_moves_no_other(case, data):
    # The copy's differences to any point are its twin's, bit for bit, and to
    # its twin all zero; appended last, it is no cluster's lowest row.
    coords, radii = case
    n = coords.shape[0]
    i = data.draw(st.integers(0, n - 1))
    before, after = PointSet(coords), PointSet(np.vstack([coords, coords[i]]))
    for r in radii:
        cfg = ClusteringConfig(r)
        bits = build_adjacency(before, cfg).bits
        grown = build_adjacency(after, cfg).bits
        assert np.array_equal(grown[:n, :n], bits)
        assert np.array_equal(grown[n], [*bits[i], True])
        assert np.array_equal(grown[:, n], grown[n])
        labels = cluster_pointset(before, cfg)[0].labels
        assert np.array_equal(cluster_pointset(after, cfg)[0].labels, [*labels, labels[i]])
