"""Differential tests of the fast paths against plain reference expressions.

Each rewritten stage is held bit-equal to a straightforward reference: the
unchunked broadcast distance expression over all pairs for the grid
adjacency, ``m`` plain squarings for the power, the paper's mask scan of
the power plus the BFS oracle for the component labels, the
intersection of every cluster pair for the split/merge events,
``json.dumps(indent=2)`` for the JSON writer, and a record-by-record reader
that decodes each physical line on its own for the CSV reader.
"""

import csv
import fractions
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radclust.clustering as clustering
import radclust.geometry as geometry
import radclust.matpower as matpower
from radclust.clustering import cluster_labels
from radclust.io import _read_csv, _read_plain, write_json
from radclust.geometry import BinaryMatrix, ClusteringConfig, PointSet, build_adjacency
from radclust.matpower import (
    bool_multiply,
    connected_components_oracle,
    make_power_plan,
    mask_labels,
    power_fast,
)
from radclust.trajectory import ClusterEvent, Frame, cluster_frames, detect_events

from helpers import chain_bits, random_adjacency, read_csv_by_record


def all_pair_distances(coords):
    """Every pair's distance at once, the squared axis differences added left to right."""
    total = 0.0
    for column in np.asarray(coords, dtype=np.float64).T:
        e = column[:, None] - column[None]
        total = total + e * e
    return np.sqrt(total)


def unchunked_adjacency(coords, radius):
    return all_pair_distances(coords) < radius


def planned_squarings(a):
    """All ``m`` squarings of the plan, with no early exit."""
    g = a
    for _ in range(make_power_plan(a.n).m):
        g = bool_multiply(g, g)
    return g


def mask_scan_labels(bits):
    """The paper's labeling loop: each unlabeled node seeds a mask over later rows."""
    n = bits.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    c = 0
    for i in range(n):
        if labels[i] != 0:
            continue
        c += 1
        labels[i] = c
        open_js = np.flatnonzero(labels[i + 1 :] == 0) + (i + 1)
        hits = (bits[open_js] & bits[i]).any(axis=1)
        labels[open_js[hits]] = c
    return labels


def random_coords(seed, n, d, duplicates, collinear=False):
    rng = np.random.default_rng(seed)
    if collinear:
        # Points on one line through a random offset, in random order.
        along = rng.normal(size=(n, 1)) * rng.choice([1e-3, 1.0, 1e3])
        coords = rng.normal(size=d) + along * rng.normal(size=d)
    else:
        coords = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
    if duplicates and n >= 2:
        coords[rng.integers(n, size=n // 2)] = coords[0]
    return coords


def boundary_radii(coords):
    """A pair distance taken as r, and the floats one ulp either side of it."""
    dist = all_pair_distances(coords)
    pairs = np.sort(dist[np.triu_indices(len(coords), 1)])
    pairs = pairs[pairs > 0]
    r = float(pairs[pairs.size // 2]) if pairs.size else 1.0
    return [np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)]


# ---------------------------------------------------------------------------
# Grid adjacency
# ---------------------------------------------------------------------------


def test_adjacency_single_point():
    ps = PointSet([[2.5, -1.0]])
    assert build_adjacency(ps, ClusteringConfig(1.0)).bits.tolist() == [[True]]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [7, 50, 300])
def test_adjacency_matches_unchunked_expression(n, d):
    coords = random_coords(n * 10 + d, n, d, duplicates=True)
    ps = PointSet(coords)
    for r in boundary_radii(coords):
        got = build_adjacency(ps, ClusteringConfig(r)).bits
        assert np.array_equal(got, unchunked_adjacency(coords, r))


def test_adjacency_candidate_batches_split_cell_pairs(monkeypatch):
    # Three coincident points in one cell and four in the next: cell pairs
    # of 9, 16 and 12 candidates, 37 in all.  Budgets cut inside a cell
    # pair, on its edges and past the end.
    coords = np.array([[-0.1, 0.0]] * 3 + [[0.1, 0.0]] * 4)
    radius = 1.0
    expected = np.ones((7, 7), dtype=bool)
    for budget in [1, 5, 8, 9, 10, 12, 25, 36, 37, 38, 2**16]:
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
        cell_pairs = geometry._CellPairs(coords, radius)
        sizes, pairs = [], set()
        for lo in range(0, cell_pairs.total, budget):
            i, j = cell_pairs.batch(lo, lo + budget)
            sizes.append(i.size)
            pairs.update(zip(i.tolist(), j.tolist()))
        assert cell_pairs.total == 37 and sum(sizes) == 37
        assert max(sizes) <= budget  # build_adjacency's memory bound rests on it
        assert {frozenset(p) for p in pairs} == {
            frozenset((i, j)) for i in range(7) for j in range(7)
        }
        got = build_adjacency(PointSet(coords), ClusteringConfig(radius)).bits
        assert np.array_equal(got, expected)


def float_order(x):
    """An integer with the order of the float ``x``; 0.0 and -0.0 map to 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def float_at(order):
    """The float with ``float_order`` equal to ``order``."""
    bits = order if order >= 0 else -order - 2**63
    return float(np.int64(bits).view(np.float64))


def last_in_cells_below(k, side):
    """The largest float whose cell ``floor(x / side)`` is below ``k``."""
    reach = (2 * abs(k) + 2) * side
    lo, hi = float_order(-reach), float_order(reach)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.floor(float_at(mid) / side) < k:
            lo = mid
        else:
            hi = mid
    return float_at(lo)


# Cell indices where the rounding of x / side is least kind: zero, powers of
# two (the float spacing of the quotient doubles there), their negatives and
# the last integers below 2**53.
EDGE_CELLS = [0, 1, 2, -1, -2, 2**20, 2**40, 2**52, -(2**20), -(2**52), 2**53 - 2, 12345]
EDGE_RADII = [1.0, 0.7, 1.3, 2.0**-300 * 1.9, 2.0**300 * 1.1, float(np.nextafter(2.0, 0))]


@pytest.mark.parametrize("k", EDGE_CELLS)
def test_cells_two_apart_hold_points_a_side_apart(k):
    # Fact 2 of the grid argument: floats x < y with a whole cell between
    # theirs differ by at least the side, however x / side rounds.
    for radius in EDGE_RADII:
        side = radius
        x = last_in_cells_below(k, side)
        y = np.nextafter(last_in_cells_below(k + 1, side), np.inf)
        assert np.floor(y / side) - np.floor(x / side) >= 2
        assert fractions.Fraction(y) - fractions.Fraction(x) >= fractions.Fraction(side)


@pytest.mark.parametrize("k", [k for k in EDGE_CELLS if k != 0])
def test_adjacency_at_one_ulp_across_a_cell_edge(k):
    for radius in EDGE_RADII:
        check_one_ulp_across_a_cell_edge(k, radius)


def check_one_ulp_across_a_cell_edge(k, radius):
    # x is the last float before the edge of cell k; y sits at distance r
    # from it and one ulp either side, inside cell k.  The pairs are laid on
    # the first axis, on the diagonal of the first two and off the axis.
    side = radius
    x = last_in_cells_below(k, side)
    # The first float y above x with y - x not below r, by bisection.
    lo, hi = float_order(x), float_order(x + 2 * radius)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float_at(mid) - x < radius:
            lo = mid
        else:
            hi = mid
    ys = [float_at(lo), float_at(hi), float_at(hi + 1)]
    assert [v - x < radius for v in ys] == [True, False, False]
    line = np.array([[x]] + [[v] for v in ys])
    for coords in [line, np.hstack([line, line]), np.hstack([line, np.zeros_like(line)])]:
        got = build_adjacency(PointSet(coords), ClusteringConfig(radius)).bits
        assert np.array_equal(got, unchunked_adjacency(coords, radius))
        if coords is line:
            assert got[0].tolist() == [True, True, False, False]


@pytest.mark.parametrize("r", [1.0, 2.0**-300, 2.0**300])
def test_adjacency_one_ulp_inside_r_across_two_edges_of_a_narrower_cell(r):
    # Cells of side exactly r hold every edge, and no narrower side does.
    # y - xs[0] is one ulp below r: an edge.  Under side r * (1 - 2**-52)
    # xs[0] lies just below the edge of cell 1 and y on that of cell 2, two
    # cells apart, so that grid would miss it.  y - xs[1] is exactly r and
    # y - xs[2] one ulp above it: no edges.
    u = r * 2.0**-53  # the float spacing just below r
    xs, y = [r - 3 * u, r - 4 * u, r - 6 * u], 2 * r - 4 * u
    assert [y - x for x in xs] == [np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)]
    narrow = r * (1 - 2.0**-52)
    assert np.floor(y / narrow) - np.floor(xs[0] / narrow) == 2
    assert np.floor(y / r) - np.floor(xs[0] / r) == 1
    expected = np.ones((4, 4), dtype=bool)
    expected[1:3, 3] = expected[3, 1:3] = False
    for d in [1, 2, 3]:  # on the last grid axis
        coords = np.zeros((4, d))
        coords[:, -1] = [*xs, y]
        got = build_adjacency(PointSet(coords), ClusteringConfig(r)).bits
        assert np.array_equal(got, expected)
        assert np.array_equal(got, unchunked_adjacency(coords, r))


@pytest.mark.parametrize("d", [1, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_adjacency_of_coincident_points_and_wide_dimensions(n, d):
    rng = np.random.default_rng(n * 10 + d)
    coincident = np.tile(rng.normal(size=d), (n, 1))
    assert build_adjacency(PointSet(coincident), ClusteringConfig(0.5)).bits.all()
    coords = random_coords(n + d, n, d, duplicates=True)
    for r in boundary_radii(coords):
        got = build_adjacency(PointSet(coords), ClusteringConfig(r)).bits
        assert np.array_equal(got, unchunked_adjacency(coords, r))


@pytest.mark.parametrize(
    "coords, radius",
    [
        ([[0.0], [2.0**500], [-(2.0**500)], [2.0**500]], 2.0**-500),
        (
            [[0.0, 2.0**500, 0.0], [2.0**500, -(2.0**500), 2.0**-500],
             [2.0**-500, 0.0, 0.0], [0.0, 2.0**500, 0.0]],
            2.0**-500,
        ),
        ([[2.0**-500], [0.0], [-(2.0**-500)], [2.0**-500]], 2.0**500),
        ([[2.0**-500, 0.0, 2.0**-500, 0.0], [0.0] * 4, [2.0**-500] * 4], 2.0**500),
    ],
    ids=["huge-1d", "huge-3d", "tiny-1d", "tiny-4d"],
)
def test_adjacency_at_the_ends_of_the_safe_range(coords, radius):
    # Cell floors reach 2**1000 here; warnings are errors in this suite.
    got = build_adjacency(PointSet(coords), ClusteringConfig(radius)).bits
    assert np.array_equal(got, unchunked_adjacency(coords, radius))


def test_adjacency_peak_memory_on_coincident_points():
    # 2000 points in one cell make 4 * 10**6 candidates; the batches keep
    # their temporaries within 4 MiB beyond the one N x N matrix.
    n = 2000
    ps = PointSet(np.ones((n, 2)))
    tracemalloc.start()
    try:
        a = build_adjacency(ps, ClusteringConfig(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.bits.all()
    assert peak <= n * n + 4 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.sampled_from([1, 2, 3, 5, 8, 9, 16]),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(1, 400),
    duplicates=st.booleans(),
)
def test_adjacency_matches_unchunked_expression_property(n, d, seed, budget, duplicates):
    coords = random_coords(seed, n, d, duplicates)
    ps = PointSet(coords)
    saved = geometry._CHUNK_ELEMENTS
    geometry._CHUNK_ELEMENTS = budget
    try:
        for r in boundary_radii(coords):
            got = build_adjacency(ps, ClusteringConfig(r)).bits
            assert np.array_equal(got, unchunked_adjacency(coords, r))
    finally:
        geometry._CHUNK_ELEMENTS = saved


# ---------------------------------------------------------------------------
# Fixpoint exit in power_fast
# ---------------------------------------------------------------------------


def two_blocks(n, split):
    """A chain of ``split`` nodes beside a clique of the remaining nodes."""
    bits = np.zeros((n, n), dtype=bool)
    bits[:split, :split] = chain_bits(split)
    bits[split:, split:] = True
    return bits


@pytest.mark.parametrize(
    "bits",
    [
        np.eye(40, dtype=bool),
        two_blocks(40, 8),
        chain_bits(14),
        chain_bits(15),
        chain_bits(64),
        chain_bits(65),
    ],
    ids=["singletons", "two-blocks", "chain-14", "chain-15", "chain-64", "chain-65"],
)
def test_power_fast_matches_planned_squarings(bits):
    a = BinaryMatrix(bits)
    g, count = power_fast(a)
    assert count == make_power_plan(a.n).m
    assert g == planned_squarings(a)


def count_products(monkeypatch):
    calls = []
    real = matpower.bool_multiply

    def counting(a, b):
        calls.append(a.n)
        return real(a, b)

    monkeypatch.setattr(matpower, "bool_multiply", counting)
    return calls


@pytest.mark.parametrize(
    "bits, executed",
    [
        (np.eye(40, dtype=bool), 1),
        # the 8-node chain closes after 3 squarings (8 hops) and the 4th
        # shows the fixpoint, one before the plan's m = 5
        (two_blocks(40, 8), 4),
        (chain_bits(65), make_power_plan(65).m),
    ],
    ids=["singletons", "two-blocks", "chain-65"],
)
def test_power_fast_stops_at_the_fixpoint(monkeypatch, bits, executed):
    calls = count_products(monkeypatch)
    power_fast(BinaryMatrix(bits))
    assert len(calls) == executed


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), p=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1))
def test_power_fast_matches_planned_squarings_property(n, p, seed):
    a = BinaryMatrix(random_adjacency(np.random.default_rng(seed), n, p))
    assert power_fast(a)[0] == planned_squarings(a)


def test_float32_product_is_exact_at_full_count():
    # Dense 0/1 operands give entries up to n; the semiring product must
    # still agree with the integer product everywhere.
    rng = np.random.default_rng(5)
    for n, p in [(1, 1.0), (200, 1.0), (200, 0.9), (257, 0.02)]:
        a = rng.random((n, n)) < p
        b = rng.random((n, n)) < p
        got = bool_multiply(BinaryMatrix(a), BinaryMatrix(b)).bits
        assert np.array_equal(got, (a.astype(np.int64) @ b.astype(np.int64)) > 0)


# ---------------------------------------------------------------------------
# Component labels and mask labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bits",
    [
        np.eye(40, dtype=bool),
        two_blocks(40, 8),
        chain_bits(14),
        chain_bits(15),
        chain_bits(64),
        chain_bits(65),
    ],
    ids=["singletons", "two-blocks", "chain-14", "chain-15", "chain-64", "chain-65"],
)
def test_labels_match_mask_scan_and_oracle(bits):
    a = BinaryMatrix(bits)
    g, _ = power_fast(a)
    lv = cluster_labels(g)
    assert np.array_equal(lv.labels, mask_scan_labels(g.bits))
    assert lv == connected_components_oracle(a)
    assert mask_labels(g) == lv
    assert cluster_labels(a) == lv


def test_labels_match_mask_scan_and_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        d = int(rng.choice([1, 2, 3, 5]))
        coords = rng.random((n, d)) * rng.uniform(1.0, 10.0)
        r = float(rng.uniform(0.1, 2.0))
        a = build_adjacency(PointSet(coords), ClusteringConfig(r))
        g, _ = power_fast(a)
        lv = cluster_labels(g)
        assert np.array_equal(lv.labels, mask_scan_labels(g.bits))
        assert lv == connected_components_oracle(a)
        assert mask_labels(g) == lv
        assert cluster_labels(a) == lv


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
    collinear=st.booleans(),
)
def test_component_labels_match_oracle_and_mask_scan_property(
    n, d, seed, duplicates, collinear
):
    coords = random_coords(seed, n, d, duplicates, collinear)
    ps = PointSet(coords)
    for r in boundary_radii(coords):
        a = build_adjacency(ps, ClusteringConfig(r))
        lv = cluster_labels(a)
        assert lv == connected_components_oracle(a)
        g, _ = power_fast(a)
        assert np.array_equal(lv.labels, mask_scan_labels(g.bits))


def path_bits(n, *orders):
    """Paths through the nodes of each order in turn, with a set diagonal."""
    bits = np.eye(n, dtype=bool)
    for order in orders:
        bits[order[:-1], order[1:]] = bits[order[1:], order[:-1]] = True
    return bits


def adversarial_case(name, n):
    """A graph whose index order is hard for min-label propagation, and its labels.

    A path in reversed index order is the same graph as ``path``.
    """
    rng = np.random.default_rng(n)
    if name == "path":
        return path_bits(n, np.arange(n)), [1] * n
    if name == "shuffled":
        return path_bits(n, rng.permutation(n)), [1] * n
    if name == "zigzag":
        # 0, n-1, 1, n-2, ...: every other step jumps across the index range.
        order = np.empty(n, dtype=int)
        order[0::2] = np.arange((n + 1) // 2)
        order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
        return path_bits(n, order), [1] * n
    if name == "star-largest-centre":
        bits = np.eye(n, dtype=bool)
        bits[n - 1] = bits[:, n - 1] = True
        return bits, [1] * n
    if name == "complete":
        return np.ones((n, n), dtype=bool), [1] * n
    if name == "interleaved-paths":
        # Even and odd nodes form two paths, each in shuffled order.
        evens, odds = np.arange(0, n, 2), np.arange(1, n, 2)
        bits = path_bits(n, rng.permutation(evens), rng.permutation(odds))
        return bits, [1, 2] * (n // 2) + [1] * (n % 2)
    raise ValueError(name)


ADVERSARIAL = [
    "path",
    "shuffled",
    "zigzag",
    "star-largest-centre",
    "complete",
    "interleaved-paths",
]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_component_labels_on_adversarial_orders(name, n):
    bits, expected = adversarial_case(name, n)
    _, rounds = clustering._component_roots(bits)
    assert rounds <= 2 * n.bit_length() - 1  # 2 floor(log2 n) + 1
    lv = cluster_labels(BinaryMatrix(bits))
    assert lv.labels.tolist() == expected
    if n <= 64:
        assert lv == connected_components_oracle(BinaryMatrix(bits))


def test_component_labels_on_every_graph_up_to_five_nodes():
    # Every labelled graph on 1-5 nodes: 1 + 2 + 8 + 64 + 1024 = 1,099 edge sets.
    seen = 0
    for n in range(1, 6):
        upper = np.triu_indices(n, 1)
        for edges in range(2 ** len(upper[0])):
            bits = np.eye(n, dtype=bool)
            bits[upper] = (edges >> np.arange(len(upper[0]))) & 1
            bits |= bits.T
            _, rounds = clustering._component_roots(bits)
            assert rounds <= 2 * n.bit_length() - 1  # 2 floor(log2 n) + 1
            g = BinaryMatrix(bits)
            assert cluster_labels(g) == connected_components_oracle(g)
            seen += 1
    assert seen == 1099


def traced_peak(label, a):
    """``label(a)`` and the peak of the memory it allocates, in bytes.

    A one-node call first loads what numpy imports lazily (``np.unique``
    pulls in ``numpy.ma``, about 1 MiB), which is no cost of ``label``.
    """
    label(BinaryMatrix(np.ones((1, 1), dtype=bool)))
    tracemalloc.start()
    try:
        lv = label(a)
        return lv, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_component_labels_peak_memory_on_complete_graph():
    # Each round's masked row minimum reads a broadcast view of the roots,
    # so the label step holds only length-n vectors, far below the n x n
    # input (3.8 MiB here).
    a = BinaryMatrix(np.ones((2000, 2000), dtype=bool))
    lv, peak = traced_peak(cluster_labels, a)
    assert lv.labels.tolist() == [1] * 2000
    assert peak <= 2**20


def test_mask_labels_peak_memory_on_complete_graph():
    # The masked row minimum reads a broadcast view of ``first``; what
    # remains is the n x n boolean copy ``argmax(axis=0)`` makes.
    n = 2000
    lv, peak = traced_peak(mask_labels, BinaryMatrix(np.ones((n, n), dtype=bool)))
    assert lv.labels.tolist() == [1] * n
    assert peak <= n * n + 2**20


def brute_force_events(results, frames):
    """Splits and merges from the overlap of every cluster pair of two frames."""

    def clusters(f):
        groups = {}
        for node_id, label in zip(frames[f].points.ids, results[f][0].labels.tolist()):
            groups.setdefault(label, set()).add(node_id)
        return groups

    events = []
    for f in range(1, len(frames)):
        before, after = clusters(f - 1), clusters(f)
        links = [(p, c) for p in before for c in after if before[p] & after[c]]
        splits, merges = [], []
        for p, members in before.items():
            children = tuple(sorted(c for q, c in links if q == p))
            if len(children) >= 2:
                members = tuple(sorted(members))
                splits.append(ClusterEvent(frames[f].t, "split", (p,), children, members))
        for c, members in after.items():
            parents = tuple(sorted(p for p, d in links if d == c))
            if len(parents) >= 2:
                members = tuple(sorted(members))
                merges.append(ClusterEvent(frames[f].t, "merge", parents, (c,), members))
        for batch in (splits, merges):
            events += sorted(batch, key=lambda e: e.member_ids[0])
    return events


@st.composite
def trajectories(draw):
    """Frames of 1-12 nodes on a line: rows shuffled per frame, repeated
    timestamps, int or str ids, and frames that swap two nodes' places."""
    n = draw(st.integers(1, 12))
    n_frames = draw(st.integers(1, 5))
    keys = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    ids = [f"id{k}" for k in keys] if draw(st.booleans()) else keys
    times = sorted(draw(st.lists(st.integers(0, 2), min_size=n_frames, max_size=n_frames)))
    xs = [draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))]
    for _ in range(1, n_frames):
        if n >= 2 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            swapped = list(xs[-1])
            swapped[i], swapped[j] = swapped[j], swapped[i]
            xs.append(swapped)
        else:
            xs.append(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    frames = []
    for t, x in zip(times, xs):
        rows = draw(st.permutations(range(n)))
        coords = [[float(x[k])] for k in rows]
        frames.append(Frame(float(t), PointSet(coords, [ids[k] for k in rows])))
    return frames


@settings(max_examples=200, deadline=None)
@given(frames=trajectories())
def test_events_match_brute_force_property(frames):
    results = cluster_frames(frames, ClusteringConfig(radius=1.5))
    assert detect_events(results, frames) == brute_force_events(results, frames)


# ---------------------------------------------------------------------------
# JSON writer against json.dumps(indent=2)
# ---------------------------------------------------------------------------

# Strings that could fool a writer which splits or re-indents encoded text.
_TRICKY_TEXT = ["", "\n", '"', "},\n  {", "],\n    [", ",\n", ": ", "\\", "é☃\U0001f600", "\ud800"]

_json_strings = st.one_of(st.sampled_from(_TRICKY_TEXT), st.text(max_size=8))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    _json_strings,
)
# Keys json.dumps converts: str, int, float, bool and None.
_json_keys = st.one_of(_json_strings, st.integers(), st.floats(), st.booleans(), st.none())


def _json_values(depth):
    """JSON values nested at most ``depth`` deep, lists of records included."""
    if depth == 0:
        return _json_scalars
    inner = _json_values(depth - 1)
    records = st.lists(_json_keys, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: inner for key in keys}), max_size=4)
    )
    # Keys that are equal as Python values but print apart ("1", "1.0", "true").
    look_alike_keys = st.sampled_from([1, 1.0, True, "1", "true"])
    return st.one_of(
        _json_scalars,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_json_keys, inner, max_size=4),
        records,
        st.lists(st.dictionaries(look_alike_keys, inner, min_size=1, max_size=2), max_size=4),
        # Empty containers beside full ones, where brackets are easy to get wrong.
        st.lists(st.one_of(st.just([]), st.just({}), inner), min_size=2, max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(obj=st.integers(0, 5).flatmap(_json_values))
@example(obj=[[], [[1]]])
@example(obj=[{}, {"a": [{}]}, {"a": []}])
@example(obj={"a": [[], [{"b": 1}, {}]], "c": [{"b": 2}, {"b": [3]}]})
@example(obj={"é": ["é☃\U0001f600", "\ud800"]})  # escaped to ASCII, as json.dumps does
def test_write_json_matches_json_dumps_indent_2_property(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "writer.json"
    write_json(obj, str(path))
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")


class _Label(str):
    pass


_cycle = {"a": []}
_cycle["a"].append(_cycle)


@pytest.mark.parametrize(
    "obj",
    [
        {"x": np.float64(0.1), "ids": [_Label("a"), 1]},  # subclasses of float and str
        [[1, 2], [3.5], ("a", None)],
    ],
    ids=["subclasses", "mixed-sequences"],
)
def test_write_json_matches_json_dumps_off_the_plain_types(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(obj, str(path))
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "obj, error",
    [
        (_cycle, ValueError),
        ({"a": [np.int64(1)]}, TypeError),
        ({"a": {(1, 2): 0}}, TypeError),
    ],
    ids=["cycle", "numpy-int", "tuple-key"],
)
def test_write_json_raises_what_json_dumps_raises(tmp_path, obj, error):
    with pytest.raises(error) as expected:
        json.dumps(obj, indent=2)
    path = tmp_path / "out.json"
    with pytest.raises(error) as got:
        write_json(obj, str(path))
    assert str(got.value) == str(expected.value)
    assert not path.exists()


# ---------------------------------------------------------------------------
# CSV reader against the record-by-record reference reader
# ---------------------------------------------------------------------------

_GOOD_FLOATS = ["0", "1.5", "-2.25", "1e-3", " 3.0", "7", "0.1", "-0.0", "1_0"]
_BAD_FLOATS = ["nan", "inf", "-Infinity", "oops", "", "1e400", "0x1"]
_IDS = ["0", "1", "-3", "07", "a", "b c", " d ", '"a,b"', '"x\ny"', '"p\r\nq"', '"q""q"', "1"]


_UNDECODABLE = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
_BYTE_SLOT = "\ue000"  # stands for a drawn undecodable byte sequence


@st.composite
def _csv_texts(draw, timestamped):
    """A point or trajectory CSV file: mostly good rows, some faults.

    A record's fault may also be a byte sequence that is not UTF-8 or a
    field over ``csv.field_size_limit()``; either can follow an earlier
    record's fault.
    """
    lead = ["t", "id"] if timestamped else ["id"]
    d = draw(st.integers(1, 3))
    header = draw(st.sampled_from([lead] * 12 + [[name.upper() for name in lead], [" " + lead[0]] + lead[1:], ["x"] + lead[1:]]))
    header = header + ["x", "y", "z"][: d if draw(st.integers(0, 9)) else 0]
    n = draw(st.integers(0, 8))
    stamps = sorted(draw(st.lists(st.sampled_from(["0", "1", "2.5", "10"]), min_size=n, max_size=n)), key=float)
    lines = [",".join(header)]
    for k in range(n):
        fault = draw(st.sampled_from(["none"] * 12 + ["short", "long", "bad", "bad", "decrease", "decrease", "blank", "byte", "byte", "huge"]))
        fields = [draw(st.sampled_from(_IDS))] + [draw(st.sampled_from(_GOOD_FLOATS)) for _ in range(d)]
        if timestamped:
            fields.insert(0, "-1" if fault == "decrease" and k else stamps[k])
        if fault == "short":
            fields.pop()
        elif fault == "long":
            fields.append("0")
        elif fault == "bad":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_BAD_FLOATS))
        elif fault == "byte":
            fields[draw(st.integers(0, len(fields) - 1))] += _BYTE_SLOT
        elif fault == "huge":
            fields[draw(st.integers(0, len(fields) - 1))] = "1" * (csv.field_size_limit() + 1)
        elif fault == "blank":
            lines.append("")
        lines.append(",".join(fields))
    if draw(st.booleans()):
        lines.append("")  # a final line end
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = lines[0]
    for line in lines[1:]:
        text += (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends) + line
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    raw = text.encode("utf-8")
    for _ in range(text.count(_BYTE_SLOT)):
        raw = raw.replace(_BYTE_SLOT.encode("utf-8"), draw(st.sampled_from(_UNDECODABLE)), 1)
    return bom + raw


def _read_or_error(read, path, lead):
    try:
        return read(path, lead)
    except ValueError as exc:
        return str(exc)


def _assert_reads_as_by_record(path, lead):
    got = _read_or_error(_read_csv, str(path), lead)
    want = _read_or_error(read_csv_by_record, str(path), lead)
    if isinstance(want, str):
        assert got == want
    else:
        ids, block = got
        assert ids == want[0]
        assert block.dtype == want[1].dtype and block.shape == want[1].shape
        assert block.flags.c_contiguous and block.tobytes() == want[1].tobytes()


@settings(max_examples=400, deadline=None)
@given(timestamped=st.booleans(), data=st.data())
def test_csv_reader_matches_record_by_record_reader_property(
    tmp_path_factory, timestamped, data
):
    lead = ("t", "id") if timestamped else ("id",)
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    path.write_bytes(data.draw(_csv_texts(timestamped)))
    _assert_reads_as_by_record(path, lead)


_PLAIN_FLOATS = ["0", "1.5", "-2.25", "1e-3", "7", "0.1", "-0.0", "+4", ".5", "3.", "2.5E+3", "5e-324", "1.7976931348623157e308", " 3.0", "8 "]
_PLAIN_IDS = ["0", "1", "-3", "07", "a", "b c", " d ", "#", "x#1", "1e3", "nan"]
# Each sends a plain file to the record walk, which reads it (a non-ASCII
# digit, which float() reads and loadtxt does not see) or refuses it.
_WALK_FLOATS = ["1_0", "nan", "inf", "-Infinity", "1e400", "#1", "0x1", "oops", "", "\u0661", "\x1c1"]


@st.composite
def _plain_csv_texts(draw, timestamped):
    """A CSV file with LF line ends, no BOM and no quote, and whether it is plain.

    It is plain, and read by ``np.loadtxt``, unless a feature the record walk
    must read or refuse is drawn: a float ``loadtxt`` reads otherwise or
    not at all, a whitespace-only line, blank lines before the header, a
    line over ``csv.field_size_limit()``, a short record, a decreasing
    timestamp or no record at all.  Blank lines and spaces around fields
    leave it plain.
    """
    lead = ["t", "id"] if timestamped else ["id"]
    id_col = len(lead) - 1
    d = draw(st.integers(1, 3))
    lines = [",".join(lead + ["x", "y", "z"][:d])]
    walk = draw(st.integers(0, 9)) == 0
    if walk:
        lines[:0] = [""] * draw(st.integers(1, 2))  # the header after blank lines
    n = draw(st.integers(0, 8))
    walk |= n == 0
    stamps = sorted(draw(st.lists(st.sampled_from(["0", "1", "2.5", "10"]), min_size=n, max_size=n)), key=float)
    for k in range(n):
        feature = draw(st.sampled_from(["none"] * 10 + ["blank", "whitespace", "float", "decrease", "short", "huge"]))
        fields = [draw(st.sampled_from(_PLAIN_IDS))] + [draw(st.sampled_from(_PLAIN_FLOATS)) for _ in range(d)]
        if timestamped:
            fields.insert(0, "-1" if feature == "decrease" and k else stamps[k])
            walk |= feature == "decrease" and k > 0
        floats = [j for j in range(len(fields)) if j != id_col]
        if feature == "blank":
            lines.append("")
        elif feature == "whitespace":
            lines.append(draw(st.sampled_from([" ", "  ", " ,"])))
        elif feature == "float":
            fields[draw(st.sampled_from(floats))] = draw(st.sampled_from(_WALK_FLOATS))
        elif feature == "short":
            fields.pop()
        elif feature == "huge":
            fields[draw(st.integers(0, len(fields) - 1))] = "1" * (csv.field_size_limit() + 1)
        walk |= feature in ("whitespace", "float", "short", "huge")
        lines.append(",".join(fields))
    text = "\n".join(lines) + ("\n" if draw(st.booleans()) else "")
    return text.encode("utf-8"), not walk


@settings(max_examples=400, deadline=None)
@given(timestamped=st.booleans(), data=st.data())
def test_csv_reader_matches_record_by_record_reader_on_plain_files_property(
    tmp_path_factory, timestamped, data
):
    # Plain files take the loadtxt pass, and every other file the record walk.
    lead = ("t", "id") if timestamped else ("id",)
    raw, plain = data.draw(_plain_csv_texts(timestamped))
    assert (_read_plain(raw, lead) is not None) == plain
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    path.write_bytes(raw)
    _assert_reads_as_by_record(path, lead)
