"""Differential tests of the fast paths against plain reference expressions.

Each rewritten stage is held bit-equal to a straightforward reference: the
unchunked broadcast distance expression over all pairs for the grid
adjacency, ``m`` plain squarings for the power, the paper's mask scan of
the power plus the BFS oracle for the component labels, and the
intersection of every cluster pair for the split/merge events.
"""

import fractions
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radclust.clustering as clustering
import radclust.geometry as geometry
import radclust.matpower as matpower
from radclust.clustering import cluster_labels
from radclust.geometry import BinaryMatrix, ClusteringConfig, PointSet, build_adjacency
from radclust.matpower import (
    bool_multiply,
    connected_components_oracle,
    make_power_plan,
    mask_labels,
    power_fast,
)
from radclust.trajectory import ClusterEvent, Frame, cluster_frames, detect_events

from helpers import chain_bits, random_adjacency


def unchunked_adjacency(coords, radius):
    c = np.asarray(coords, dtype=np.float64)
    return np.sqrt(((c[:, None] - c[None]) ** 2).sum(-1)) < radius


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
    dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
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
    side = 1.0 * geometry._CELL_MARGIN
    expected = np.ones((7, 7), dtype=bool)
    for budget in [1, 5, 8, 9, 10, 12, 25, 36, 37, 38, 2**16]:
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", budget)
        cell_pairs = geometry._CellPairs(coords, side)
        sizes, pairs = [], set()
        for lo in range(0, cell_pairs.total, budget):
            i, j = cell_pairs.batch(lo, lo + budget)
            sizes.append(i.size)
            pairs.update(zip(i.tolist(), j.tolist()))
        assert cell_pairs.total == 37 and sum(sizes) == 37
        assert {frozenset(p) for p in pairs} == {
            frozenset((i, j)) for i in range(7) for j in range(7)
        }
        got = build_adjacency(PointSet(coords), ClusteringConfig(1.0)).bits
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
    # The grid's margin argument: floats x < y with a whole cell between
    # theirs differ by at least the side, however x / side rounds.
    for radius in EDGE_RADII:
        side = radius * geometry._CELL_MARGIN
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
    side = radius * geometry._CELL_MARGIN
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
    d=st.sampled_from([1, 2, 3, 5]),
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
