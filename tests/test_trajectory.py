import numpy as np
import pytest

from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig, PointSet
from radclust.trajectory import (
    MOTORCADE_RADIUS,
    ClusterEvent,
    Frame,
    cluster_frames,
    detect_events,
    synthetic_motorcade,
    validate_frames,
)


def _frame(t, rows, ids=None):
    return Frame(t=float(t), points=PointSet(rows, ids))


def _pair_frames(ts, gap_by_t):
    """Two nodes on the x axis whose separation varies over time."""
    return [_frame(t, [[0.0, 0.0], [gap_by_t(t), 0.0]]) for t in ts]


# ---------------------------------------------------------------------------
# Frame validation and per-frame clustering
# ---------------------------------------------------------------------------


def test_frames_cluster_independently():
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]),
        _frame(1, [[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]]),
    ]
    cfg = ClusteringConfig(radius=1.5)
    results = cluster_frames(frames, cfg)
    assert [lv.n_clusters for lv, _ in results] == [2, 3]
    # identical to clustering each frame by hand
    solo, _ = cluster_pointset(frames[1].points, cfg)
    assert results[1][0] == solo


def test_validate_rejects_empty():
    with pytest.raises(ValueError):
        validate_frames([])


def test_validate_rejects_decreasing_timestamps():
    frames = [_frame(2, [[0.0, 0.0]]), _frame(1, [[0.0, 0.0]])]
    with pytest.raises(ValueError, match="t=1.0"):
        validate_frames(frames)


@pytest.mark.parametrize("bad_t", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_validate_rejects_a_non_finite_timestamp(bad_t, at):
    # Every order comparison with NaN is false, so 1.0, nan, 0.0 would pass.
    ts = [1.0, 2.0, 3.0]
    ts[at] = bad_t
    frames = [_frame(t, [[0.0, 0.0]]) for t in ts]
    with pytest.raises(ValueError, match=rf"t={bad_t}: timestamps must be finite"):
        validate_frames(frames)


def test_detect_events_rejects_a_nan_timestamp_between_decreasing_ones():
    # Together, apart, together: at t = 1.0, nan, 0.0 this read as a split at
    # t = nan and a merge at t = 0.0.
    frames = _pair_frames([1.0, float("nan"), 0.0], lambda t: 5.0 if t != t else 1.0)
    cfg = ClusteringConfig(radius=2.0)
    results = cluster_frames(frames, cfg)
    with pytest.raises(ValueError, match=r"t=nan: timestamps must be finite"):
        detect_events(results, frames)


def test_validate_rejects_changing_id_sets():
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0]], ids=[0, 1]),
        _frame(3, [[0.0, 0.0], [1.0, 0.0]], ids=[0, 2]),
    ]
    with pytest.raises(ValueError) as err:
        validate_frames(frames)
    msg = str(err.value)
    assert "t=3.0" in msg and "1" in msg and "2" in msg


def test_validate_lists_missing_and_extra_ids_in_id_order():
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ids=[2, 10, 3]),
        _frame(1, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ids=[3, 11, 12]),
    ]
    with pytest.raises(ValueError, match=r"\(missing \[2, 10\], extra \[11, 12\]\)$"):
        validate_frames(frames)


def test_validate_rejects_a_change_of_dimension():
    frames = [_frame(0, [[0.0, 0.0]]), _frame(1, [[0.0, 0.0]]), _frame(2, [[0.0, 0.0, 0.0]])]
    with pytest.raises(ValueError, match=r"^frame t=2\.0: 3 coordinates, the first frame has 2$"):
        validate_frames(frames)


def test_equal_timestamps_are_allowed():
    frames = [_frame(1, [[0.0, 0.0]]), _frame(1, [[5.0, 0.0]])]
    validate_frames(frames)  # must not raise


def _events_of(frames):
    return detect_events(cluster_frames(frames, ClusteringConfig(radius=2.0)), frames)


@pytest.mark.parametrize("check", [validate_frames, _events_of], ids=["validate", "events"])
@pytest.mark.parametrize(
    "t, row",
    [(0.5, [0.0, 0.0]), (2.0, [0.0, 0.0, 0.0])],
    ids=["then-a-decreasing-timestamp", "then-a-change-of-dimension"],
)
def test_the_first_frame_that_breaks_any_rule_is_named(check, t, row):
    # The ids change at t=1.0 and the next frame breaks another rule: a
    # pass over every frame per rule named that later frame first.
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0]], ids=["a", "b"]),
        _frame(1, [[0.0, 0.0], [1.0, 0.0]], ids=["a", "c"]),
        _frame(t, [row, [1.0, *row[1:]]], ids=["a", "b"]),
    ]
    with pytest.raises(ValueError) as err:
        check(frames)
    assert str(err.value) == (
        "frame t=1.0: node ids do not match the first frame (missing ['b'], extra ['c'])"
    )


def test_validate_returns_each_rows_position_among_the_first_frames_ids():
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ids=["a", "b", "c"]),
        _frame(1, [[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]], ids=["c", "a", "b"]),
    ]
    first, shuffled = validate_frames(frames)
    assert first.tolist() == [0, 1, 2]
    assert shuffled.tolist() == [2, 0, 1]
    # Positions count in id order (ints first, 2 before 10), not in the
    # first frame's row order; frames with the first frame's ids share one
    # read-only array.
    rows = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    frames = [
        _frame(0, rows, ids=["b", 10, "a", 2]),
        _frame(1, rows, ids=[2, "a", 10, "b"]),
        _frame(2, rows, ids=["b", 10, "a", 2]),
    ]
    first, moved, again = validate_frames(frames)
    assert first.tolist() == [3, 1, 2, 0]
    assert moved.tolist() == [0, 2, 1, 3]
    assert again is first and not first.flags.writeable


def test_cluster_frames_clusters_frames_whose_id_sets_differ():
    # Clustering a frame needs no trajectory rule; detect_events holds them.
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0]], ids=[0, 1]),
        _frame(1, [[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]], ids=[0, 2, 3]),
    ]
    results = cluster_frames(frames, ClusteringConfig(radius=2.0))
    assert [lv.n_clusters for lv, _ in results] == [1, 3]


# ---------------------------------------------------------------------------
# Event detection
# ---------------------------------------------------------------------------


def test_simple_split_then_merge():
    # two nodes: together, apart, together again
    gaps = {0: 1.0, 1: 5.0, 2: 1.0}
    frames = _pair_frames([0, 1, 2], lambda t: gaps[t])
    cfg = ClusteringConfig(radius=2.0)
    events = detect_events(cluster_frames(frames, cfg), frames)
    assert [e.kind for e in events] == ["split", "merge"]
    split, merge = events
    assert split.t == 1.0
    assert split.parents == (1,)
    assert sorted(split.children) == [1, 2]
    assert split.member_ids == (0, 1)
    assert merge.t == 2.0
    assert sorted(merge.parents) == [1, 2]
    assert merge.children == (1,)
    assert merge.member_ids == (0, 1)


def test_static_scene_has_no_events():
    frames = [
        _frame(t, [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        for t in range(5)
    ]
    results = cluster_frames(frames, ClusteringConfig(radius=1.5))
    assert detect_events(results, frames) == []


def test_singleton_swap_is_not_an_event():
    # two lone nodes trade places; the partition never changes, so no events
    frames = [
        _frame(0, [[0.0, 0.0], [10.0, 0.0]]),
        _frame(1, [[10.0, 0.0], [0.0, 0.0]]),
    ]
    results = cluster_frames(frames, ClusteringConfig(radius=1.0))
    assert detect_events(results, frames) == []


def test_single_frame_has_no_events():
    frames = [_frame(0, [[0.0, 0.0], [1.0, 0.0]])]
    results = cluster_frames(frames, ClusteringConfig(radius=2.0))
    assert detect_events(results, frames) == []


def test_three_way_merge_reports_all_parents():
    apart = [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]
    together = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    frames = [_frame(0, apart), _frame(1, together)]
    results = cluster_frames(frames, ClusteringConfig(radius=1.5))
    events = detect_events(results, frames)
    assert len(events) == 1
    (merge,) = events
    assert merge.kind == "merge"
    assert merge.parents == (1, 2, 3)
    assert merge.children == (1,)
    assert merge.member_ids == (0, 1, 2)


def test_events_sort_ids_that_mix_int_and_str():
    # Ints sort before strs: members within an event and events by lowest member.
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0]], ids=[1, "a"]),
        _frame(1, [[0.0, 0.0], [5.0, 0.0]], ids=[1, "a"]),
    ]
    events = detect_events(cluster_frames(frames, ClusteringConfig(radius=2.0)), frames)
    assert [(e.t, e.kind, e.member_ids) for e in events] == [(1.0, "split", (1, "a"))]
    rows = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]]
    apart = [[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]]
    ids = ["z", "y", "b", 5]
    frames = [_frame(0, rows, ids=ids), _frame(1, apart, ids=ids)]
    events = detect_events(cluster_frames(frames, ClusteringConfig(radius=2.0)), frames)
    assert [e.member_ids for e in events] == [(5, "b"), ("y", "z")]


def test_events_conserve_membership():
    # any split's parent members equal the union of its children's members
    frames = synthetic_motorcade()
    cfg = ClusteringConfig(radius=MOTORCADE_RADIUS)
    results = cluster_frames(frames, cfg)
    by_t = {frame.t: idx for idx, frame in enumerate(frames)}
    for event in detect_events(results, frames):
        idx = by_t[event.t]
        lv_now = results[idx][0]
        ids_now = frames[idx].points.ids
        if event.kind == "split":
            lv_prev = results[idx - 1][0]
            ids_prev = frames[idx - 1].points.ids
            parent = event.parents[0]
            members = {
                i for i, lab in zip(ids_prev, lv_prev.labels) if lab == parent
            }
        else:
            child = event.children[0]
            members = {i for i, lab in zip(ids_now, lv_now.labels) if lab == child}
        assert members == set(event.member_ids)


def test_detect_events_requires_matching_lengths():
    frames = [_frame(0, [[0.0, 0.0]])]
    with pytest.raises(ValueError):
        detect_events([], frames)


def test_detect_events_rejects_decreasing_timestamps():
    frames = [_frame(1, [[0.0, 0.0], [1.0, 0.0]]), _frame(0, [[0.0, 0.0], [5.0, 0.0]])]
    cfg = ClusteringConfig(radius=2.0)
    results = [cluster_pointset(frame.points, cfg) for frame in frames]
    with pytest.raises(ValueError, match="t=0.0: timestamps must be non-decreasing"):
        detect_events(results, frames)


def test_detect_events_rejects_an_empty_trajectory():
    with pytest.raises(ValueError, match="at least one frame"):
        detect_events([], [])


def test_detect_events_rejects_changing_id_sets():
    frames = [
        _frame(0, [[0.0, 0.0], [1.0, 0.0]], ids=[0, 1]),
        _frame(3, [[0.0, 0.0], [1.0, 0.0]], ids=[0, 2]),
    ]
    cfg = ClusteringConfig(radius=2.0)
    results = [cluster_pointset(frame.points, cfg) for frame in frames]
    with pytest.raises(ValueError, match=r"t=3.0: .* \(missing \[1\], extra \[2\]\)"):
        detect_events(results, frames)


def test_detect_events_rejects_a_change_of_dimension():
    frames = [_frame(0, [[0.0, 0.0], [1.0, 0.0]]), _frame(1, [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])]
    cfg = ClusteringConfig(radius=2.0)
    results = cluster_frames(frames, cfg)
    with pytest.raises(ValueError, match=r"^frame t=1\.0: 3 coordinates, the first frame has 2$"):
        detect_events(results, frames)


def test_detect_events_rejects_a_label_count_unlike_the_point_count():
    frames = [_frame(0, [[0.0, 0.0], [5.0, 0.0]]), _frame(1, [[0.0, 0.0], [1.0, 0.0]])]
    cfg = ClusteringConfig(radius=2.0)
    results = cluster_frames(frames, cfg)
    results[0] = cluster_pointset(PointSet([[0.0, 0.0]]), cfg)
    with pytest.raises(ValueError, match="t=0.0: 1 labels for 2 points"):
        detect_events(results, frames)


# ---------------------------------------------------------------------------
# The synthetic motorcade
# ---------------------------------------------------------------------------


def test_motorcade_shape():
    frames = synthetic_motorcade()
    assert len(frames) == 161
    assert frames[0].t == 0.0 and frames[-1].t == 160.0
    assert all(len(f.points) == 7 for f in frames)
    validate_frames(frames)


def test_motorcade_split_and_merge_events():
    frames = synthetic_motorcade()
    results = cluster_frames(frames, ClusteringConfig(radius=MOTORCADE_RADIUS))
    events = detect_events(results, frames)
    assert [(e.t, e.kind) for e in events] == [(35.0, "split"), (139.0, "merge")]
    split, merge = events
    assert split.member_ids == (0, 1, 2, 3, 4, 5, 6)
    assert merge.member_ids == (0, 1, 2, 3, 4, 5, 6)
    assert split.parents == (1,)
    assert set(split.children) == {1, 2}
    assert merge.children == (1,)
    assert set(merge.parents) == {1, 2}


def test_motorcade_cluster_counts_per_phase():
    frames = synthetic_motorcade()
    results = cluster_frames(frames, ClusteringConfig(radius=MOTORCADE_RADIUS))
    counts = [lv.n_clusters for lv, _ in results]
    for idx, frame in enumerate(frames):
        expected = 2 if 35.0 <= frame.t <= 138.0 else 1
        assert counts[idx] == expected, f"t={frame.t}"


def test_motorcade_rear_pair_forms_its_own_cluster_mid_run():
    frames = synthetic_motorcade()
    results = cluster_frames(frames, ClusteringConfig(radius=MOTORCADE_RADIUS))
    idx = next(i for i, f in enumerate(frames) if f.t == 80.0)
    lv = results[idx][0]
    ids = frames[idx].points.ids
    groups = {}
    for node_id, lab in zip(ids, lv.labels):
        groups.setdefault(int(lab), set()).add(node_id)
    assert set(map(frozenset, groups.values())) == {
        frozenset({0, 1, 2, 3, 4}),
        frozenset({5, 6}),
    }


def test_motorcade_is_deterministic():
    a = synthetic_motorcade()
    b = synthetic_motorcade()
    assert all(
        np.array_equal(fa.points.coords, fb.points.coords) for fa, fb in zip(a, b)
    )


def test_event_is_frozen_record():
    e = ClusterEvent(t=1.0, kind="split", parents=(1,), children=(1, 2), member_ids=(0,))
    with pytest.raises(AttributeError):
        e.t = 2.0
