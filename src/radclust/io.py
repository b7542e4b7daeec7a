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
it reads back as written; every other field is written as is.  Both CSV
writers refuse, before opening their file, ids that would not read back
unchanged in value and type (``' b'``, or ``1`` beside ``'x'``).

The reader works by column: one ``csv.reader`` pass, then ``float()`` over
each column and one vectorised finiteness and timestamp-order check.  Only
when one of those checks fails does it read the file again record by
record, to report the first bad record with its physical line, exactly as
a record-by-record reader would.

:func:`write_json` writes exactly the bytes of ``json.dumps(obj, indent=2)``
plus a final newline.  With ``indent`` CPython before 3.13 encodes in pure
Python, a call per value.  Here the C encoder (``json.encoder.c_make_encoder``)
writes every scalar, one call for all the lists of scalars at one nesting
level, with an item separator that carries that level's line break and
indent; dicts that share a key order are encoded a key at a time.  Python
handles the nesting, not the items.  A value of any other type (a subclass,
a numpy scalar) or a reference cycle hands the whole document to
``json.dumps``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import re
from json.encoder import c_make_encoder, encode_basestring_ascii
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
    if all(map(_INT_RE.match, set(raw_ids))):
        return list(map(int, raw_ids))
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
    Bytes that are not UTF-8 raise it naming the line that holds the first
    of them, whichever record is being read.
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
    except UnicodeDecodeError:
        raise ValueError(_not_utf8(path)) from None


def _not_utf8(path: str) -> str:
    """The error of a file whose bytes are not UTF-8, with its physical line.

    The text decoder reads ahead a chunk at a time, and its error gives an
    offset into that chunk, so the line comes from decoding the whole file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")  # a byte-order mark decodes, so offsets are the file's
    except UnicodeDecodeError as exc:
        # Lines end at "\r\n", "\r" or "\n", as for the csv reader.
        head = raw[: exc.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return (
            f"{path}: line {line_no}: can't decode byte 0x{raw[exc.start]:02x} "
            f"as UTF-8: {exc.reason}"
        )
    return f"{path}: not UTF-8"  # the file changed since it was read


def _read_csv(path: str, lead: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Raw ids and float block of a CSV whose header starts with ``lead``.

    ``lead`` is ``("id",)`` or ``("t", "id")``.  The block holds the
    timestamp, when there is one, which may not decrease, and then the
    coordinate columns, at least one.  The columns are parsed whole; when any
    check fails, :func:`_read_records` reads the file again to report the
    first bad record.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            rows = list(filter(None, csv.reader(fh)))  # the non-blank records
        except (csv.Error, ValueError):  # ValueError: bytes that are not UTF-8
            rows = []
    header = rows[0] if rows else []
    names = [name.strip().lower() for name in header[: len(lead)]]
    if (
        len(rows) < 2
        or len(header) <= len(lead)
        or names != list(lead)
        or len(set(map(len, rows))) != 1
    ):
        return _read_records(path, lead)
    columns = list(zip(*rows))
    del rows, header  # the row lists; the columns keep their strings
    n = len(columns[0]) - 1
    raw_ids = list(map(str.strip, columns.pop(len(lead) - 1)[1:]))
    block = np.empty((n, len(columns)))
    try:
        for j, column in enumerate(columns):
            block[:, j] = np.fromiter(map(float, itertools.islice(column, 1, None)), float, n)
    except ValueError:
        return _read_records(path, lead)
    del columns
    stamps = block[:, 0]
    if not np.isfinite(block).all() or (len(lead) > 1 and (stamps[1:] < stamps[:-1]).any()):
        return _read_records(path, lead)
    return raw_ids, block


def _read_records(path: str, lead: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """:func:`_read_csv` record by record, which words the error of a bad file.

    Each record is checked in full (field count, timestamp, timestamp order,
    coordinates) before the next, so the first malformed record is the one
    reported.
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


def _check_ids_read_back(ids: Sequence) -> None:
    """Refuse ids that the reader would return changed in value or type.

    The reader strips each id and reads the column as integers only when
    every id is one in canonical form, so ``' b'`` would read back as ``'b'``
    and ``1`` beside ``'x'`` as ``'1'``.
    """
    back = _parse_ids([str(node_id).strip() for node_id in ids])
    for node_id, read in zip(ids, back):
        if type(read) is not type(node_id) or read != node_id:
            raise ValueError(f"id {node_id!r} would read back as {read!r}")


def write_points_csv(ps: PointSet, path: str) -> None:
    """Write ``ps`` as a point CSV; refuses ids that would not read back."""
    _check_ids_read_back(ps.ids)
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

    Before ``path`` is opened, refuses what the reader would refuse, change
    or merge: frames that break :func:`validate_frames`, ids that would not
    read back, equal consecutive timestamps (one run of rows), or frames of
    mixed dimension.
    """
    validate_frames(frames)
    _check_ids_read_back(frames[0].points.ids)
    d = frames[0].points.dimension
    for prev, frame in zip([None, *frames], frames):
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
    latitude outside [-90, 90] is a ``ValueError`` naming its frame and
    point.  A longitude more than 180 degrees from the first frame's first
    point is shifted by -360 or +360 first, so a group straddling the
    antimeridian stays together; every other longitude is used as is.
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
        outside = np.flatnonzero(np.abs(lat) > 90.0)
        if outside.size:
            i = outside[0]
            raise ValueError(
                f"frame t={frame.t}: point {frame.points.ids[i]!r}: latitude {lat[i]}"
                " is outside [-90, 90]"
            )
        lon = longitudes(frame.points.coords)
        x = EARTH_RADIUS_M * np.radians(lon - lon0) * cos_lat0
        y = EARTH_RADIUS_M * np.radians(lat - lat0)
        points = PointSet(np.column_stack([x, y]), frame.points.ids)
        projected.append(Frame(t=frame.t, points=points))
    return projected


def _cluster_records(table: ClusterTable) -> list[dict]:
    colors = cluster_color_names(table)
    return [
        {"label": c, "size": table.frequencies[c], "rank": rank, "color": colors[c]}
        for rank, c in enumerate(table.ranking, start=1)
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


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_STR_TYPE = frozenset({str})


class _NotPlain(Exception):
    """The document holds a value that :func:`write_json` leaves to ``json.dumps``."""


def _not_plain(value):
    raise _NotPlain


@functools.lru_cache(maxsize=None)
def _flat_encoder(level: int):
    """The C encoder for scalar-only containers whose items sit at ``level``.

    Its item separator breaks the line and indents to ``level``, so it
    writes the items exactly as ``json.dumps(indent=2)`` does; only the
    brackets need their line breaks added.
    """
    return c_make_encoder(
        None, _not_plain, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * level, False, False, True,
    )


def _texts(values: list, level: int) -> list[str]:
    """``json.dumps(v, indent=2)`` of each of the non-empty ``values``, opened at ``level``.

    Values of one kind share encoder calls.  Scalars, and lists that hold
    only scalars, take one call of the C encoder for the whole list: no
    encoded scalar holds a raw line break, so its item separator, between a
    closing and an opening bracket, splits the texts apart.  The items of
    lists that hold containers are encoded as one list and cut back apart.
    Dicts with one key order are encoded a key at a time, each key's values
    as one list.  Python recursion walks only the nesting, never the items.
    """
    kinds = set(map(type, values))
    if _SCALAR_TYPES.issuperset(kinds):
        return "".join(_flat_encoder(0)(values, 0))[1:-1].split(",\n")
    if len(kinds) > 1:
        return [_texts([value], level)[0] for value in values]
    kind = kinds.pop()
    inner = "\n" + "  " * (level + 1)
    outer = inner[:-2]
    if kind is dict:
        # Dicts share columns when their keys print alike, as equal str keys
        # in one order do; 1, 1.0 and True are equal keys that print apart.
        if len(values) > 1 and (
            len(set(map(tuple, values))) > 1
            or not _STR_TYPE.issuperset(map(type, itertools.chain.from_iterable(values)))
        ):
            return [_texts([value], level)[0] for value in values]
        if not values[0]:
            return ["{}"] * len(values)
        if not _SCALAR_TYPES.issuperset(map(type, values[0])):
            raise _NotPlain  # a key json.dumps refuses
        pieces = []
        for key in values[0]:
            name = encode_basestring_ascii(key if type(key) is str else _texts([key], 0)[0])
            head = ("," if pieces else "{") + inner + name + ": "
            column = _texts(list(map(operator.itemgetter(key), values)), level + 1)
            pieces += [itertools.repeat(head), column]
        return list(map("".join, zip(*pieces, itertools.repeat(outer + "}"))))
    if kind is not list and kind is not tuple:
        raise _NotPlain
    items = list(itertools.chain.from_iterable(values))
    if not _SCALAR_TYPES.issuperset(map(type, items)):
        texts = iter(_texts(items, level + 1))
        return [
            "[" + inner + ("," + inner).join(itertools.islice(texts, len(value))) + outer + "]"
            if value
            else "[]"
            for value in values
        ]
    text = "".join(_flat_encoder(level + 1)(values, 0))
    return [
        "[" + inner + body + outer + "]" if body else "[]"
        for body in text[2:-2].split("]," + inner + "[")
    ]


def write_json(obj, path: str) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, byte for byte (module docstring)."""
    try:
        if c_make_encoder is None:
            raise _NotPlain
        text = _texts([obj], 0)[0]
    except (_NotPlain, RecursionError):  # RecursionError: a reference cycle
        text = json.dumps(obj, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")
