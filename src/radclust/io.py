"""File formats: point and trajectory CSV, JSON reports, lat/lon projection.

Point CSV: header ``id,x,y[,z...]``, one row per node, at least one
coordinate column.  Trajectory CSV: header ``t,id,x,y[,...]``, rows grouped
by non-decreasing timestamp; every timestamp group must contain the same ids
(``validate_frames``).  The trajectory writer refuses, before opening its
file, frames whose timestamps, id sets or dimensions would not read back as
written.

The id column is parsed as integers when every value in the file is an
integer in canonical form (``7``, ``-3``; not ``07``, ``+7`` or ``-0``),
otherwise all ids stay strings.  Only canonical forms map one to one onto
integers, so distinct raw ids stay distinct; the column-level rule keeps
ids mutually comparable for deterministic event ordering.

All output is UTF-8 with LF line endings and fixed key order, so identical
inputs produce byte-identical files.  CSV fields are quoted minimally: an id
holding a comma, a quote or a line break (``\n`` or ``\r``) is quoted, so
it reads back as written; every other field is written as is.  Read errors
name the physical line on which the bad record starts.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from typing import Sequence

import numpy as np

from .clustering import ClusterTable, LabelVector, cluster_color_names
from .geometry import PointSet
from .trajectory import ClusterEvent, Frame, validate_frames

__all__ = [
    "read_points_csv",
    "write_points_csv",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "project_equirect",
    "cluster_payload",
    "frames_payload",
    "events_payload",
    "write_json",
    "EARTH_RADIUS_M",
]

EARTH_RADIUS_M = 6371000.0

_INT_RE = re.compile(r"-?[1-9][0-9]*\Z|0\Z")


def _parse_ids(raw_ids: list[str]) -> list:
    if all(_INT_RE.match(token) for token in raw_ids):
        return [int(token) for token in raw_ids]
    return list(raw_ids)


def _parse_float(token: str, path: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: line {line_no}: invalid {what} {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: non-finite {what} {token!r}")
    return value


def _records(fh, path: str):
    """``(physical start line, row)`` of each non-blank CSV record.

    A record the ``csv`` module refuses (a field over its size limit, say)
    raises ``ValueError`` naming ``path`` and the line the record starts on.
    """
    reader = csv.reader(fh)
    line_no = 1
    try:
        for row in reader:
            if row:
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from None


def _read_csv(path: str, lead: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Raw ids and float block of a CSV whose header starts with ``lead``.

    ``lead`` is ``("id",)`` or ``("t", "id")``.  The block holds the
    timestamp, when there is one, which may not decrease, and then the
    coordinate columns, at least one.  Each record is checked in full (field
    count, timestamp, timestamp order, coordinates) before the next, so the
    first malformed record is the one reported.
    """
    id_col = len(lead) - 1  # 1 after a timestamp column
    raw_ids: list[str] = []
    block: list[list[float]] = []
    # utf-8-sig drops a leading byte-order mark, which would spoil the header.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = _records(fh, path)
        header_no, header = next(records, (None, None))
        if header is None:
            raise ValueError(f"{path}: empty file")
        names = [name.strip().lower() for name in header[: len(lead)]]
        if len(header) <= len(lead) or names != list(lead):
            raise ValueError(
                f"{path}: line {header_no}: header must be {','.join(lead)},<coord>,... "
                f"got {','.join(header)!r}"
            )
        for line_no, row in records:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            values = [_parse_float(row[0], path, line_no, "timestamp")] if id_col else []
            if values and block and values[0] < block[-1][0]:
                raise ValueError(
                    f"{path}: line {line_no}: timestamp {values[0]} decreases "
                    f"(previous was {block[-1][0]})"
                )
            values += [
                _parse_float(c, path, line_no, "coordinate") for c in row[id_col + 1 :]
            ]
            raw_ids.append(row[id_col].strip())
            block.append(values)
    if not raw_ids:
        raise ValueError(f"{path}: no data rows")
    return raw_ids, np.array(block)


def _coord_names(d: int) -> list[str]:
    names = ["x", "y", "z"]
    return [names[i] if i < 3 else f"c{i}" for i in range(d)]


def _csv_field(value) -> str:
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` with LF line ends and minimal quoting.

    Unlike ``csv.writer`` with an LF terminator, this quotes a bare ``\r``,
    at which a reader would end the record.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in itertools.chain([header], rows):
            fh.write(",".join(map(_csv_field, row)) + "\n")


def read_points_csv(path: str) -> PointSet:
    """Read a point CSV into a :class:`PointSet` (row order preserved)."""
    raw_ids, coords = _read_csv(path, ("id",))
    try:
        return PointSet(coords, _parse_ids(raw_ids))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_points_csv(ps: PointSet, path: str) -> None:
    rows = (
        [node_id, *map(repr, row)] for node_id, row in zip(ps.ids, ps.coords.tolist())
    )
    _write_csv(path, ["id", *_coord_names(ps.dimension)], rows)


def read_trajectory_csv(path: str) -> list[Frame]:
    """Read a trajectory CSV into time-ordered frames.

    Frames are the runs of rows with equal timestamps.
    """
    raw_ids, block = _read_csv(path, ("t", "id"))
    ids = _parse_ids(raw_ids)
    stamps = block[:, 0]
    starts = [0, *(np.flatnonzero(stamps[1:] != stamps[:-1]) + 1).tolist()]
    frames: list[Frame] = []
    for lo, hi in zip(starts, starts[1:] + [len(ids)]):
        t = float(stamps[lo])
        try:
            frames.append(Frame(t=t, points=PointSet(block[lo:hi, 1:], ids[lo:hi])))
        except ValueError as exc:
            raise ValueError(f"{path}: frame t={t}: {exc}") from None
    return frames


def write_trajectory_csv(frames: Sequence[Frame], path: str) -> None:
    """Write ``frames`` as a trajectory CSV that reads back frame for frame.

    Before ``path`` is opened, refuses what the reader would refuse or merge:
    frames that break :func:`validate_frames`, equal consecutive timestamps
    (one run of rows), a non-finite timestamp, or frames of mixed dimension.
    """
    validate_frames(frames)
    d = frames[0].points.dimension
    for prev, frame in zip([None, *frames], frames):
        if not math.isfinite(frame.t):
            raise ValueError(f"frame t={frame.t}: timestamps must be finite")
        if prev is not None and frame.t == prev.t:
            raise ValueError(
                f"frame t={frame.t}: equal consecutive timestamps would read back as one frame"
            )
        if frame.points.dimension != d:
            raise ValueError(
                f"frame t={frame.t}: {frame.points.dimension} coordinates, the first frame has {d}"
            )
    rows = (
        [repr(float(frame.t)), node_id, *map(repr, row)]
        for frame in frames
        for node_id, row in zip(frame.points.ids, frame.points.coords.tolist())
    )
    _write_csv(path, ["t", "id", *_coord_names(d)], rows)


def project_equirect(frames: Sequence[Frame]) -> list[Frame]:
    """Convert (lat, lon) degrees to planar meters about the first frame's centroid.

    Equirectangular approximation: good over the few kilometers a moving
    group spans; callers needing geodesic accuracy should pre-project.  A
    longitude more than 180 degrees from the first frame's first point is
    shifted by -360 or +360 first, so a group straddling the antimeridian
    stays together; every other longitude is used as is.
    """
    if not frames:
        raise ValueError("a trajectory needs at least one frame")
    if frames[0].points.dimension != 2:
        raise ValueError(
            "equirectangular projection needs exactly 2 coordinate columns (lat, lon)"
        )
    lon_ref = frames[0].points.coords[0, 1]

    def longitudes(coords: np.ndarray) -> np.ndarray:
        lon = coords[:, 1]
        lon = np.where(lon - lon_ref > 180.0, lon - 360.0, lon)
        return np.where(lon - lon_ref < -180.0, lon + 360.0, lon)

    first = np.copy(frames[0].points.coords)  # same layout, same mean bits
    first[:, 1] = longitudes(first)
    lat0, lon0 = first.mean(axis=0)
    cos_lat0 = math.cos(math.radians(lat0))
    projected = []
    for frame in frames:
        lat = frame.points.coords[:, 0]
        lon = longitudes(frame.points.coords)
        x = EARTH_RADIUS_M * np.radians(lon - lon0) * cos_lat0
        y = EARTH_RADIUS_M * np.radians(lat - lat0)
        points = PointSet(np.column_stack([x, y]), frame.points.ids)
        projected.append(Frame(t=frame.t, points=points))
    return projected


def _cluster_records(table: ClusterTable) -> list[dict]:
    colors = cluster_color_names(table)
    return [
        {
            "label": int(label),
            "size": int(table.frequencies[label]),
            "rank": rank,
            "color": colors[label],
        }
        for rank, label in enumerate(table.ranking, start=1)
    ]


def cluster_payload(radius: float, lv: LabelVector, table: ClusterTable) -> dict:
    """The labels JSON document: per-node labels plus the size-ranked clusters."""
    return {
        "radius": float(radius),
        "n": len(lv),
        "labels": lv.labels.tolist(),
        "clusters": _cluster_records(table),
    }


def frames_payload(
    radius: float,
    frames: Sequence[Frame],
    results: Sequence[tuple[LabelVector, ClusterTable]],
) -> dict:
    per_frame = [
        {
            "t": float(frame.t),
            "ids": list(frame.points.ids),
            "labels": lv.labels.tolist(),
            "clusters": _cluster_records(table),
        }
        for frame, (lv, table) in zip(frames, results, strict=True)
    ]
    return {"radius": float(radius), "n_frames": len(per_frame), "frames": per_frame}


def events_payload(events: Sequence[ClusterEvent]) -> list[dict]:
    return [
        {
            "t": float(e.t),
            "kind": e.kind,
            "parents": list(e.parents),
            "children": list(e.children),
            "member_ids": list(e.member_ids),
        }
        for e in events
    ]


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")
