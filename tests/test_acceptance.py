"""End-to-end acceptance gate.

Eight numbered criteria, each a single test that prints one
``ACCEPTANCE <n> PASS/FAIL`` line (capture is suspended around the print so
the lines always reach the terminal).  Tolerances are exact: every criterion
counts violations and requires zero.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from radclust.cli import main
from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig, PointSet, build_adjacency
from radclust.io import write_trajectory_csv
from radclust.matpower import (
    connected_components_oracle,
    mask_labels,
    power_fast,
    power_naive_oracle,
)
from radclust.scenarios import (
    chain_points,
    dense_core_with_scatter_points,
    ring_points,
    shape_showcase,
)
from radclust.trajectory import (
    MOTORCADE_RADIUS,
    cluster_frames,
    detect_events,
    synthetic_motorcade,
)


@contextmanager
def criterion(num, title, capsys):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {verdict}: {title}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    """500 random instances: N in 1..120, unit square, radii from sparse
    (nearly all singletons) to dense (nearly one cluster)."""
    rng = np.random.default_rng(20260814)
    instances = []
    for _ in range(500):
        n = int(rng.integers(1, 121))
        radius = float(np.exp(rng.uniform(np.log(0.02), np.log(2.0))))
        coords = rng.random((n, 2))
        instances.append((coords, radius))
    return instances


def test_criterion_1_oracle_equivalence(corpus, capsys):
    with criterion(1, "pipeline partition equals components oracle on 500 instances", capsys):
        mismatches = 0
        for coords, radius in corpus:
            ps = PointSet(coords)
            cfg = ClusteringConfig(radius=radius)
            lv, _ = cluster_pointset(ps, cfg)
            oracle = connected_components_oracle(build_adjacency(ps, cfg))
            if lv != oracle:
                mismatches += 1
        assert mismatches == 0


def test_criterion_2_exponent_insensitivity(corpus, capsys):
    with criterion(2, "sequential and squared powers agree for N <= 64", capsys):
        checked = 0
        superset_violations = 0
        partition_violations = 0
        for coords, radius in corpus:
            if len(coords) > 64:
                continue
            checked += 1
            a = build_adjacency(
                PointSet(coords), ClusteringConfig(radius=radius)
            )
            fast_g, _ = power_fast(a)
            naive_g = power_naive_oracle(a)
            if (naive_g.to_array() & ~fast_g.to_array()).any():
                superset_violations += 1
            if mask_labels(fast_g) != mask_labels(naive_g):
                partition_violations += 1
        assert checked > 100  # the corpus must actually exercise this range
        assert superset_violations == 0
        assert partition_violations == 0


def test_criterion_3_chains_stay_whole(capsys):
    with criterion(3, "unit chains of every length 2..200 form one cluster", capsys):
        cfg = ClusteringConfig(radius=1.5)
        lv, _ = cluster_pointset(chain_points(7, 1.0), cfg)
        assert lv.labels.tolist() == [1] * 7
        violations = [
            n
            for n in range(2, 201)
            if cluster_pointset(chain_points(n, 1.0), cfg)[0].n_clusters != 1
        ]
        assert violations == []


def test_criterion_4_multiplication_counts(tmp_path, capsys):
    with criterion(4, "bench reports log2 vs linear multiplication counts", capsys):
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--bench-n", "2,7,10,100,1000", "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            records = {rec["n"]: rec for rec in json.load(fh)}
        for n in (2, 7, 10, 100, 1000):
            k = n // 2
            expected_fast = 0 if k <= 1 else math.ceil(math.log2(k))
            assert records[n]["fast_mults"] == expected_fast
            assert records[n]["naive_mults"] == max(k - 1, 0)
        assert records[1000]["fast_mults"] == 9
        assert records[1000]["naive_mults"] == 499


def test_criterion_5_shape_independence(capsys):
    with criterion(5, "hollow ring is one cluster; showcase top-3 sizes 19,14,13", capsys):
        radius = 1.0
        ring = ring_points(64, ring_radius=10.0)
        lv, _ = cluster_pointset(ring, ClusteringConfig(radius=radius))
        assert lv.n_clusters == 1
        centroid = ring.coords.mean(axis=0)
        gaps = np.sqrt(((ring.coords - centroid) ** 2).sum(axis=1))
        assert (gaps > radius).all()

        scene = shape_showcase(radius=radius, seed=0)
        _, table = cluster_pointset(scene, ClusteringConfig(radius=radius))
        assert table.sizes_ranked[:3] == (19, 14, 13)
        assert len(table.ranking) == 7


def test_criterion_6_dense_core_rank_one(capsys):
    with criterion(6, "rank-1 cluster holds every core point across 30 seeds", capsys):
        cfg = ClusteringConfig(radius=1.0)
        violations = 0
        for seed in range(30):
            ps = dense_core_with_scatter_points(
                40, 20, core_radius=0.45, scatter_inner=2.0,
                scatter_outer=12.0, seed=seed,
            )
            lv, table = cluster_pointset(ps, cfg)
            top = table.ranking[0]
            members = set(np.flatnonzero(lv.labels == top).tolist())
            if not members >= set(range(40)):
                violations += 1
        assert violations == 0


def test_criterion_7_trajectory_events(capsys):
    with criterion(7, "motorcade yields exactly split@35 and merge@139", capsys):
        frames = synthetic_motorcade()
        results = cluster_frames(frames, ClusteringConfig(radius=MOTORCADE_RADIUS))
        events = detect_events(results, frames)
        assert [(e.t, e.kind) for e in events] == [
            (35.0, "split"),
            (139.0, "merge"),
        ]
        assert all(e.member_ids == (0, 1, 2, 3, 4, 5, 6) for e in events)


def _run_all_commands(workdir, motorcade_path):
    chain_csv = str(workdir / "chain.csv")
    assert (
        main(
            [
                "generate", "--kind", "chain",
                "--param", "n=12", "--param", "spacing=0.9",
                "--out", chain_csv,
            ]
        )
        == 0
    )
    blob_csv = str(workdir / "blob.csv")
    assert (
        main(
            [
                "generate", "--kind", "blob",
                "--param", "n=30", "--param", "spacing=1.0", "--param", "jitter=0.2",
                "--seed", "5", "--out", blob_csv,
            ]
        )
        == 0
    )
    labels = str(workdir / "labels.json")
    svg = str(workdir / "plot.svg")
    assert (
        main(["cluster", "--input", blob_csv, "--radius", "1.6", "--out", labels, "--svg", svg])
        == 0
    )
    frames = str(workdir / "frames.json")
    events = str(workdir / "events.json")
    svg_dir = workdir / "plots"
    assert (
        main(
            [
                "trajectory", "--input", motorcade_path, "--radius", "15",
                "--out", frames, "--events", events, "--svg", str(svg_dir),
            ]
        )
        == 0
    )
    bench = str(workdir / "bench.json")
    assert main(["bench", "--bench-n", "2,7,10,64", "--out", bench, "--seed", "1"]) == 0

    blobs = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            blobs[str(path.relative_to(workdir))] = path.read_bytes()
    return blobs


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    with criterion(8, "every CLI command reproduces byte-identical outputs", capsys):
        motorcade_path = str(tmp_path / "motorcade.csv")
        write_trajectory_csv(synthetic_motorcade(), motorcade_path)
        runs = []
        for tag in ("run1", "run2"):
            d = tmp_path / tag
            d.mkdir()
            runs.append(_run_all_commands(d, motorcade_path))
        assert runs[0].keys() == runs[1].keys()
        assert runs[0] == runs[1]
