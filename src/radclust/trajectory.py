"""Per-frame clustering of trajectories and split/merge event detection.

Every frame is clustered independently; events are a post-processing overlay
on consecutive frames.  Cluster identity across frames is defined purely by
shared member ids: a cluster at frame t-1 is a parent of a cluster at frame t
when they share at least one node, so the links are the distinct (frame
pair, parent, child) triples of the nodes.  A parent with two or more
children splits; a child with two or more parents merges.  Geometry never
enters event detection, only membership: links and event members are both
read from one label matrix, each frame's labels in the first frame's id
order.  :func:`validate_frames` alone holds the trajectory rules;
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
    """Check the trajectory rules and align every frame's rows to the first's.

    A trajectory has at least one frame, finite non-decreasing timestamps and
    one id set.  Returns, per frame, each row's id's position among the first
    frame's ids.  ``ValueError`` names the first frame that breaks a rule.
    """
    if not frames:
        raise ValueError("a trajectory needs at least one frame")
    for prev, frame in zip([None, *frames], frames):
        if not math.isfinite(frame.t):  # NaN would pass any order comparison
            raise ValueError(f"frame t={frame.t}: timestamps must be finite")
        if prev is not None and frame.t < prev.t:
            raise ValueError(f"frame t={frame.t}: timestamps must be non-decreasing")
    first = frames[0].points.ids
    index = {node_id: k for k, node_id in enumerate(first)}
    positions = []
    for frame in frames:
        ids = frame.points.ids
        if ids == first:  # the usual case: rows in the first frame's order
            positions.append(np.arange(len(ids), dtype=np.intp))
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
    F x n label matrix in the first frame's id order, which
    :func:`validate_frames` gives.  Events go by frame, splits before merges,
    then lowest member id, ints before strs.  ``ValueError`` names a frame
    that breaks a trajectory rule or whose label count is not its point count.
    """
    if len(results) != len(frames):
        raise ValueError("results and frames must have equal length")
    positions = validate_frames(frames)
    aligned = np.empty((len(frames), len(frames[0].points)), dtype=np.int64)
    for f, pos in enumerate(positions):
        labels = results[f][0].labels
        if labels.size != pos.size:
            raise ValueError(
                f"frame t={frames[f].t}: {labels.size} labels for {pos.size} points"
            )
        aligned[f, pos] = labels
    base = int(aligned.max()) + 1
    pair = np.arange(len(frames) - 1)[:, None]
    ids = frames[0].points.ids
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
            rows = np.flatnonzero(group[f] == label).tolist()
            partners = tuple(partner[lo:hi].tolist())
            links = ((label,), partners) if kind == "split" else (partners, (label,))
            members = tuple(sorted((ids[i] for i in rows), key=_id_key))
            found.append((f, ClusterEvent(frames[f + 1].t, kind, *links, members)))
    found.sort(key=lambda fe: (fe[0], fe[1].kind != "split", _id_key(fe[1].member_ids[0])))
    return [event for _, event in found]


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
