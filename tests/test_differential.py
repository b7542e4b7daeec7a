"""Differential tests of the fast paths against plain reference expressions.

Each rewritten stage is held bit-equal to a straightforward reference: the
unchunked broadcast distance expression for the adjacency, ``m`` plain
squarings for the power, and the paper's mask scan of the power plus the
BFS oracle for the component labels.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radclust.clustering as clustering
import radclust.geometry as geometry
import radclust.matpower as matpower
from radclust.clustering import cluster_labels, connected_components_oracle, mask_labels
from radclust.geometry import ClusteringConfig, PointSet, build_adjacency
from radclust.matpower import BinaryMatrix, bool_multiply, make_power_plan, power_fast

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


def chunk_rows(n, d):
    return max(1, geometry._CHUNK_ELEMENTS // (n * d))


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
# Chunked adjacency
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


def test_adjacency_size_cases_cover_chunk_shapes():
    # The sizes above include N below one chunk and N that is not a multiple
    # of the chunk height, with the default chunk budget.
    assert chunk_rows(50, 5) > 50
    assert chunk_rows(300, 5) < 300 and 300 % chunk_rows(300, 5) != 0


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
    budget=st.integers(1, 400),
    duplicates=st.booleans(),
    collinear=st.booleans(),
)
def test_component_labels_match_oracle_and_mask_scan_property(
    n, d, seed, budget, duplicates, collinear
):
    coords = random_coords(seed, n, d, duplicates, collinear)
    ps = PointSet(coords)
    saved = clustering._CHUNK_ELEMENTS
    clustering._CHUNK_ELEMENTS = budget
    try:
        for r in boundary_radii(coords):
            a = build_adjacency(ps, ClusteringConfig(r))
            lv = cluster_labels(a)
            assert lv == connected_components_oracle(a)
            g, _ = power_fast(a)
            assert np.array_equal(lv.labels, mask_scan_labels(g.bits))
    finally:
        clustering._CHUNK_ELEMENTS = saved


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


def test_component_labels_peak_memory_on_complete_graph():
    # Row blocks keep the label step's temporaries far below the n x n
    # uint16 array (7.6 MiB here) the mask-scan labels need.
    a = BinaryMatrix(np.ones((2000, 2000), dtype=bool))
    tracemalloc.start()
    try:
        lv = cluster_labels(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lv.labels.tolist() == [1] * 2000
    assert peak <= 2**20
