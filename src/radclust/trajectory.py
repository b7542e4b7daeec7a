"""Per-frame clustering of trajectories and split/merge event detection.

Every frame is clustered independently; events are a post-processing overlay
on consecutive frames.  Cluster identity across frames is defined purely by
shared member ids: a cluster at frame t-1 is a parent of a cluster at frame t
when they share at least one node.  A parent whose members land in two or
more clusters splits; a child fed by two or more parents merges.  Geometry
never enters event detection, only membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterTable, LabelVector, cluster_pointset
from .geometry import ClusteringConfig, NodeId, PointSet

__all__ = [
    "Frame",
    "ClusterEvent",
    "validate_frames",
    "cluster_frames",
    "detect_events",
    "synthetic_motorcade",
    "MOTORCADE_RADIUS",
]


@dataclass(frozen=True)
class Frame:
    """One time instant of a trajectory: a timestamp plus the node positions."""

    t: float
    points: PointSet


@dataclass(frozen=True)
class ClusterEvent:
    """A partition change between consecutive frames.

    ``t`` is the timestamp of the later frame, where the change is first
    visible.  For a split, ``parents`` holds the one dividing cluster and
    ``member_ids`` its members; for a merge, ``children`` holds the one
    receiving cluster and ``member_ids`` its members.  Labels are per-frame
    cluster numbers (parents at t-1, children at t).
    """

    t: float
    kind: str  # "split" | "merge"
    parents: tuple[int, ...]
    children: tuple[int, ...]
    member_ids: tuple[NodeId, ...]


def validate_frames(frames: Sequence[Frame]) -> None:
    """Check timestamps are non-decreasing and all frames share one id set."""
    if not frames:
        raise ValueError("a trajectory needs at least one frame")
    id_set = set(frames[0].points.ids)
    prev_t = None
    for frame in frames:
        if prev_t is not None and frame.t < prev_t:
            raise ValueError(
                f"frame t={frame.t}: timestamps must be non-decreasing"
            )
        prev_t = frame.t
        ids = set(frame.points.ids)
        if ids != id_set:
            missing = sorted(id_set - ids, key=str)
            extra = sorted(ids - id_set, key=str)
            raise ValueError(
                f"frame t={frame.t}: node ids do not match the first frame"
                f" (missing {missing}, extra {extra})"
            )


def cluster_frames(
    frames: Sequence[Frame], cfg: ClusteringConfig
) -> list[tuple[LabelVector, ClusterTable]]:
    """Cluster each frame independently; output order matches input order."""
    validate_frames(frames)
    return [cluster_pointset(frame.points, cfg) for frame in frames]


def _members_by_label(frame: Frame, lv: LabelVector) -> dict[int, set]:
    members: dict[int, set] = {}
    for node_id, label in zip(frame.points.ids, lv.labels):
        members.setdefault(int(label), set()).add(node_id)
    return members


def detect_events(
    results: Sequence[tuple[LabelVector, ClusterTable]],
    frames: Sequence[Frame],
) -> list[ClusterEvent]:
    """Find splits and merges between each pair of consecutive frames.

    Events are ordered by timestamp, then splits before merges, then by the
    lowest involved node id.
    """
    if len(results) != len(frames):
        raise ValueError("results and frames must have equal length")
    events: list[ClusterEvent] = []
    for prev_idx in range(len(frames) - 1):
        prev_frame, cur_frame = frames[prev_idx], frames[prev_idx + 1]
        prev_members = _members_by_label(prev_frame, results[prev_idx][0])
        cur_members = _members_by_label(cur_frame, results[prev_idx + 1][0])
        node_to_cur = {
            node_id: label
            for label, ids in cur_members.items()
            for node_id in ids
        }
        children_of: dict[int, set[int]] = {
            p: {node_to_cur[node_id] for node_id in ids}
            for p, ids in prev_members.items()
        }
        parents_of: dict[int, set[int]] = {}
        for p, children in children_of.items():
            for c in children:
                parents_of.setdefault(c, set()).add(p)
        frame_events = []
        for p, children in children_of.items():
            if len(children) >= 2:
                frame_events.append(
                    ClusterEvent(
                        t=cur_frame.t,
                        kind="split",
                        parents=(p,),
                        children=tuple(sorted(children)),
                        member_ids=tuple(sorted(prev_members[p])),
                    )
                )
        for c, parents in parents_of.items():
            if len(parents) >= 2:
                frame_events.append(
                    ClusterEvent(
                        t=cur_frame.t,
                        kind="merge",
                        parents=tuple(sorted(parents)),
                        children=(c,),
                        member_ids=tuple(sorted(cur_members[c])),
                    )
                )
        frame_events.sort(key=lambda e: (e.kind != "split", e.member_ids[0]))
        events.extend(frame_events)
    return events


# Radius the synthetic motorcade is designed for, in meters.
MOTORCADE_RADIUS = 15.0

# Piecewise-linear lag profile (frame -> extra trailing distance in meters)
# for the last two cars.  The column spacing is 6 m, so the rear pair breaks
# away once the lag exceeds 9 m and rejoins when it drops back below.  Knots
# keep >= 1 m of margin on either side of the threshold at the frames right
# around the transitions, so no pair ever sits near the radius boundary.
_LAG_KNOTS_T = np.array([0.0, 25.0, 34.0, 35.0, 60.0, 110.0, 138.0, 139.0, 148.0, 160.0])
_LAG_KNOTS_M = np.array([0.0, 0.0, 8.0, 12.0, 30.0, 30.0, 12.0, 8.0, 0.0, 0.0])


def synthetic_motorcade() -> list[Frame]:
    """A seven-car convoy that loses and regains its rear pair.

    Cars 0..6 drive along x at 10 m/s in a staggered column with 6 m gaps
    (alternate cars offset 3 m in y).  Cars 5 and 6 fall behind between
    frames 35 and 138 inclusive, far enough to form their own cluster at
    :data:`MOTORCADE_RADIUS`, then close the gap again.  Frames are one per
    second at t = 0..160, so clustering yields exactly one split at t=35 and
    one merge at t=139.
    """
    speed = 10.0
    gap = 6.0
    cars = np.arange(7)
    y = 3.0 * (cars % 2)
    frames = []
    for t in range(161):
        lag = float(np.interp(t, _LAG_KNOTS_T, _LAG_KNOTS_M))
        x = speed * t - gap * cars - np.where(cars >= 5, lag, 0.0)
        frames.append(Frame(t=float(t), points=PointSet(np.column_stack([x, y]))))
    return frames
