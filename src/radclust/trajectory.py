"""Per-frame clustering of trajectories and split/merge event detection.

Every frame is clustered independently; events are a post-processing overlay
on consecutive frames.  Cluster identity across frames is defined purely by
shared member ids: a cluster at frame t-1 is a parent of a cluster at frame t
when they share at least one node, so the links are the distinct (frame
pair, parent, child) triples of the nodes.  A parent with two or more
children splits; a child with two or more parents merges.  Geometry never
enters event detection, only membership: links and event members are both
read from one label matrix, its columns in id order (ints before strs).
:func:`validate_frames` alone holds the trajectory rules and the id order;
:func:`detect_events` and the trajectory CSV reader check through it.
"""

from __future__ import annotations

import math
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


def _id_key(node_id: NodeId) -> tuple[bool, NodeId]:
    # Total over mixed int and str ids (ints first); natural order otherwise.
    return isinstance(node_id, str), node_id


def validate_frames(frames: Sequence[Frame]) -> list[np.ndarray]:
    """Check the trajectory rules and number every frame's rows in id order.

    A trajectory has at least one frame, finite non-decreasing timestamps,
    one id set and one dimension.  Returns, per frame, each row's position
    among the first frame's ids in id order (ints before strs); frames whose
    ids equal the first frame's share one read-only array.  Each frame is
    checked once, in order: ``ValueError`` names the first that breaks a rule.
    """
    if not frames:
        raise ValueError("a trajectory needs at least one frame")
    d = frames[0].points.dimension
    first = frames[0].points.ids
    index = {node_id: k for k, node_id in enumerate(sorted(first, key=_id_key))}
    same = np.array([index[node_id] for node_id in first], dtype=np.intp)
    same.flags.writeable = False
    positions = []
    for prev, frame in zip([None, *frames], frames):
        if not math.isfinite(frame.t):  # NaN would pass any order comparison
            raise ValueError(f"frame t={frame.t}: timestamps must be finite")
        if prev is not None and frame.t < prev.t:
            raise ValueError(f"frame t={frame.t}: timestamps must be non-decreasing")
        if frame.points.dimension != d:
            raise ValueError(
                f"frame t={frame.t}: {frame.points.dimension} coordinates, the first frame has {d}"
            )
        ids = frame.points.ids
        if ids == first:  # the usual case: rows in the first frame's order
            positions.append(same)
            continue
        pos = [index.get(node_id) for node_id in ids]
        if len(ids) != len(first) or None in pos:  # ids are unique per frame
            missing = sorted(set(first) - set(ids), key=_id_key)
            extra = sorted(set(ids) - set(first), key=_id_key)
            raise ValueError(
                f"frame t={frame.t}: node ids do not match the first frame"
                f" (missing {missing}, extra {extra})"
            )
        positions.append(np.array(pos, dtype=np.intp))
    return positions


def cluster_frames(
    frames: Sequence[Frame], cfg: ClusteringConfig
) -> list[tuple[LabelVector, ClusterTable]]:
    """Cluster each frame independently; output order matches input order."""
    return [cluster_pointset(frame.points, cfg) for frame in frames]


def detect_events(
    results: Sequence[tuple[LabelVector, ClusterTable]],
    frames: Sequence[Frame],
) -> list[ClusterEvent]:
    """Find splits and merges between each pair of consecutive frames.

    The links (module docstring) and each event's members come from one
    F x n label matrix, its columns the ids in :func:`validate_frames`'s id
    order.  Events go by frame, splits before merges, then lowest member id.
    ``ValueError`` names the first frame that breaks a trajectory rule, each
    checked once and in order, else the first whose label count is not its point count.
    """
    if len(results) != len(frames):
        raise ValueError("results and frames must have equal length")
    positions = validate_frames(frames)
    for frame, (lv, _), pos in zip(frames, results, positions):
        if lv.labels.size != pos.size:
            raise ValueError(f"frame t={frame.t}: {lv.labels.size} labels for {pos.size} points")
    aligned = np.empty((len(frames), positions[0].size), dtype=np.int64)
    aligned[np.arange(len(frames))[:, None], positions] = [lv.labels for lv, _ in results]
    ids = np.array(frames[0].points.ids, dtype=object)[np.argsort(positions[0])]
    base = int(aligned.max()) + 1
    pair = np.arange(len(frames) - 1)[:, None]
    found = []
    for kind, group, partner in (
        ("split", aligned[:-1], aligned[1:]),
        ("merge", aligned[1:], aligned[:-1]),
    ):
        keys = ((pair * base + group) * base + partner).ravel()
        # The counts only keep np.unique from importing numpy.ma (numpy 2.x).
        heads, partner = np.divmod(np.unique(keys, return_counts=True)[0], base)
        heads, first, count = np.unique(heads, return_index=True, return_counts=True)
        keep = count >= 2
        for head, lo, hi in zip(heads[keep], first[keep], (first + count)[keep]):
            f, label = divmod(int(head), base)
            cols = (group[f] == label).nonzero()[0]
            partners = tuple(partner[lo:hi].tolist())
            links = ((label,), partners) if kind == "split" else (partners, (label,))
            event = ClusterEvent(frames[f + 1].t, kind, *links, tuple(ids[cols].tolist()))
            found.append((f, kind != "split", cols[0], event))
    return [e[3] for e in sorted(found, key=lambda e: e[:3])]


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
