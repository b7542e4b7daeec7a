"""File formats: point and trajectory CSV, JSON reports, lat/lon projection.

Point CSV: header ``id,x,y[,z...]``, one row per node, at least one
coordinate column.  Trajectory CSV: header ``t,id,x,y[,...]``, rows grouped
by non-decreasing timestamp; every timestamp group must contain the same ids
(``validate_frames``).  The trajectory reader refuses a decreasing timestamp
at its line, and a frame whose ids are not the first frame's by its
timestamp, both naming the file.  Of several faults it names a record's
first, wherever it lies, as the record walk reads the whole file before
any frame is built; then the first frame that breaks a rule, its ids or
its own point set (a duplicate id, a coordinate outside the safe range).
The trajectory writer refuses, before opening its file, frames that
would not read back as written, and names the first frame at fault.
:func:`project_equirect` checks the trajectory rules through
``validate_frames``, then its own two (two coordinates, latitudes), and
:func:`frames_payload` checks the frames with their clusterings through it.

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

The reader reads the file's bytes once (a pipe reads as a file does).  A
plain file is parsed by ``np.loadtxt``'s C reader: one whose bytes are all
printable ASCII or ``\n``, with no ``"``, whose header is on line 1, and
whose lines are no longer than ``csv.field_size_limit()``.  Its rows are
then held to the record walk's checks (a row for every non-blank line,
finite floats, timestamps that never decrease, stripped ids).  Any other
file, and any plain one ``loadtxt`` refuses or that fails a check, takes
the record walk: it refuses the first byte that is not UTF-8, then walks
the records once with one ``csv.reader``: each record is checked in full
and its id and floats kept, so the first bad record is the one refused,
worded in one place with the file and the physical line it starts on.
Both give the same ids and the same float bits.

:func:`write_json` writes exactly the bytes of ``json.dumps(obj, indent=2)``
plus a final newline.  With ``indent`` CPython before 3.13 encodes in pure
Python, a call per value.  Here a ``json.JSONEncoder`` with no indent
writes every scalar, one call for all the lists of scalars at one nesting
level, with an item separator that carries that level's line break and
indent; dicts that share an order of ``str`` keys are encoded a key at a
time.  Python handles the nesting, not the items.  Every document radclust
writes takes that path, in C where json has a C encoder and in pure Python
where it has none.  Any other goes whole to ``json.dumps``: one with a
value of another type (a subclass, a numpy scalar), a key that is not a
``str``, an empty dict or a reference cycle, or whose values encoded side
by side mix kinds other than scalars, or are dicts in different key orders.
Each is refused with json's own ``TypeError`` (``RecursionError`` for a
cycle).
"""

from __future__ import annotations

import array
import csv
import itertools
import json
import math
import operator
import re
import warnings
from io import BytesIO, TextIOWrapper
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


def _parse_float(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"invalid {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {token!r}")
    return value


# The bytes of a plain file: printable ASCII but the quote, and the line feed.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"


def _header_ok(header: list[str], lead: tuple[str, ...]) -> bool:
    names = [name.strip().lower() for name in header[: len(lead)]]
    return len(header) > len(lead) and names == list(lead)


def _read_plain(raw: bytes, lead: tuple[str, ...]) -> tuple[list[str], np.ndarray] | None:
    """``_read_csv``'s result for a plain file, by ``np.loadtxt``; else ``None``.

    ``None`` leaves the file to the record walk, which words its fault: a
    file that is not plain (module docstring), one ``loadtxt`` refuses or
    warns on, and one whose rows fail a check the walk makes.  ``loadtxt``
    reads quotes and control bytes otherwise than ``csv.reader`` and
    ``float()`` do (it strips a byte 0x1c around a float, which ``float()``
    refuses), and it has no field size limit, hence the plain file.
    """
    if raw.translate(None, _PLAIN_BYTES):
        return None
    # Each line's length plus one; the text after the last line end is a line.
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    spans = np.diff(ends, prepend=-1, append=len(raw))
    header = raw[: spans[0] - 1].decode("ascii").split(",")
    if not _header_ok(header, lead) or spans.max() > csv.field_size_limit() + 1:
        return None
    n_rows = np.count_nonzero(spans[1:] > 1)  # the non-blank lines after the header
    del ends, spans  # freed before loadtxt's rows are allocated
    id_col = len(lead) - 1
    dtype = np.dtype(
        [("id", object) if k == id_col else (f"f{k}", float) for k in range(len(header))]
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data", for one
            rows = np.loadtxt(
                BytesIO(raw), dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1
            )
    except (ValueError, Warning):
        return None
    block = np.column_stack([rows[name] for name in dtype.names if name != "id"])
    if (
        len(rows) != n_rows
        or not np.isfinite(block).all()
        or (id_col and not (block[1:, 0] >= block[:-1, 0]).all())
    ):
        return None
    return [raw_id.strip() for raw_id in rows["id"].tolist()], block


def _read_csv(path: str, lead: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Raw ids and float block of a CSV whose header starts with ``lead``.

    ``lead`` is ``("id",)`` or ``("t", "id")``.  The block holds the
    timestamp, when there is one, which may not decrease, and then the
    coordinate columns, at least one.  The file is read once, as bytes.  A
    plain file is parsed by :func:`_read_plain`.  Any other, and a plain one
    it gives back, takes the record walk.  The first byte that is not UTF-8
    is refused first, with its physical line.  Then one walk checks each
    record in full (field count, timestamp, timestamp order, coordinates)
    before the next, so the first malformed record is the one refused, and
    keeps each record's stripped id and floats.
    """
    with open(path, "rb") as fh:
        raw = fh.read()  # once: a pipe or FIFO cannot be read again
    plain = _read_plain(raw, lead)
    if plain is not None:
        return plain
    try:
        raw.decode("utf-8")  # a byte-order mark decodes, so offsets are the file's
    except UnicodeDecodeError as exc:
        # Lines end at "\r\n", "\r" or "\n", as for the csv reader.
        head = raw[: exc.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(
            f"{path}: line {line_no}: can't decode byte 0x{raw[exc.start]:02x} "
            f"as UTF-8: {exc.reason}"
        ) from None
    id_col = len(lead) - 1  # 1 after a timestamp column
    # utf-8-sig drops a leading byte-order mark, which would spoil the header.
    reader = csv.reader(TextIOWrapper(BytesIO(raw), encoding="utf-8-sig", newline=""))
    header = None
    previous = -math.inf
    raw_ids: list[str] = []
    values = array.array("d")  # per row the timestamp, then the coordinates; no float objects
    line_no = 1  # where the next record starts
    try:
        for row in reader:
            if row and header is None:
                header = row
                if not _header_ok(row, lead):
                    raise ValueError(
                        f"header must be {','.join(lead)},<coord>,... got {','.join(row)!r}"
                    )
            elif row:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                if id_col:
                    t = _parse_float(row[0], "timestamp")
                    if t < previous:
                        raise ValueError(f"timestamp {t} decreases (previous was {previous})")
                    previous = t
                    values.append(t)
                raw_ids.append(row[id_col].strip())
                for token in row[id_col + 1 :]:
                    values.append(_parse_float(token, "coordinate"))
            line_no = reader.line_num + 1
    except (ValueError, csv.Error) as exc:  # every record fault, worded here once
        raise ValueError(f"{path}: line {line_no}: {exc}") from None
    if not raw_ids:
        raise ValueError(f"{path}: {'empty file' if header is None else 'no data rows'}")
    return raw_ids, np.frombuffer(values).reshape(len(raw_ids), -1)


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
    ids = _parse_ids(raw_ids)
    del raw_ids  # freed before PointSet copies the ids
    try:
        return PointSet(coords, ids)
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

    Frames are the runs of rows with equal timestamps; they must pass
    :func:`validate_frames`, so every frame holds the first frame's ids.
    The first frame that breaks a rule, its own point set's included, is
    the one named.
    """
    raw_ids, block = _read_csv(path, ("t", "id"))
    ids = _parse_ids(raw_ids)
    del raw_ids  # freed before the frames' PointSets copy the ids
    stamps = block[:, 0]
    starts = [0, *(np.flatnonzero(stamps[1:] != stamps[:-1]) + 1).tolist()]
    frames: list[Frame] = []
    try:
        for lo, hi in zip(starts, starts[1:] + [len(ids)]):
            t = float(stamps[lo])
            try:
                frames.append(Frame(t=t, points=PointSet(block[lo:hi, 1:], ids[lo:hi])))
            except ValueError as exc:
                if frames:  # an earlier frame's fault comes first
                    validate_frames(frames)
                raise ValueError(f"frame t={t}: {exc}") from None
        validate_frames(frames)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return frames


def write_trajectory_csv(frames: Sequence[Frame], path: str) -> None:
    """Write ``frames`` as a trajectory CSV that reads back frame for frame.

    Before ``path`` is opened, refuses what the reader would refuse, change
    or merge, in this order: a frame that breaks :func:`validate_frames`
    before the first equal consecutive timestamps, those timestamps (one
    run of rows), then ids that would not read back.  So the first frame
    at fault is the one named.
    """
    k = next((k for k in range(1, len(frames)) if frames[k].t == frames[k - 1].t), None)
    validate_frames(frames[:k])  # the frames before the first equal timestamp, or all
    if k is not None:
        raise ValueError(
            f"frame t={frames[k].t}: equal consecutive timestamps would read back as one frame"
        )
    _check_ids_read_back(frames[0].points.ids)
    rows = (
        [repr(float(frame.t)), node_id, *map(repr, row)]
        for frame in frames
        for node_id, row in zip(frame.points.ids, frame.points.coords.tolist())
    )
    _write_csv(path, ["t", "id", *_coord_names(frames[0].points.dimension)], rows)


def project_equirect(frames: Sequence[Frame]) -> list[Frame]:
    """Convert (lat, lon) degrees to planar meters about the first frame's centroid.

    Equirectangular approximation: good over the few kilometers a moving
    group spans; callers needing geodesic accuracy should pre-project.  A
    longitude more than 180 degrees from the first frame's first point is
    shifted by -360 or +360 first, so a group straddling the antimeridian
    stays together; every other longitude is used as is.  Refused with a
    ``ValueError`` naming the frame, in this order: frames that break
    :func:`validate_frames` (its own message), a first frame without
    exactly two coordinates, a latitude outside [-90, 90] (and its point),
    and a projected point set that ``PointSet`` refuses.
    """
    validate_frames(frames)  # then every frame has the first frame's dimension
    if frames[0].points.dimension != 2:
        raise ValueError(
            f"frame t={frames[0].t}: equirectangular projection needs exactly 2 coordinate"
            " columns (lat, lon)"
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
        try:
            points = PointSet(np.column_stack([x, y]), frame.points.ids)
        except ValueError as exc:
            raise ValueError(f"frame t={frame.t}: {exc}") from None
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
    """The frames JSON document: each frame's ids, labels and ranked clusters.

    ``ValueError`` is :func:`validate_frames`' refusal of ``frames`` with
    ``results`` (a length mismatch first), before anything is built.
    """
    validate_frames(frames, results)
    per_frame = [
        {
            "t": float(frame.t),
            "ids": list(frame.points.ids),
            "labels": lv.labels.tolist(),
            "clusters": _cluster_records(table),
        }
        for frame, (lv, table) in zip(frames, results)
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


def _encode(value, level: int) -> str:
    """``value`` in JSON, items separated by a line break indented to ``level``.

    ``json.JSONEncoder`` with no indent uses json's C encoder where there is
    one, and its pure-Python encoder where there is none, byte for byte alike.
    """
    separators = (",\n" + "  " * level, ": ")
    return json.JSONEncoder(separators=separators, check_circular=False).encode(value)


def _texts(values: list, level: int) -> list[str]:
    """``json.dumps(v, indent=2)`` of each of the non-empty ``values``, opened at ``level``.

    Values of one kind share encoder calls.  Scalars, and lists that hold
    only scalars, take one encoder call for the whole list: no encoded
    scalar holds a raw line break, so its item separator, between a closing
    and an opening bracket, splits the texts apart.  The items of
    lists that hold containers are encoded as one list and cut back apart.
    Dicts with one order of ``str`` keys are encoded a key at a time, each
    key's values as one list.  Python recursion walks only the nesting,
    never the items.  Containers of mixed kinds, dicts whose keys differ in
    order or type, and ``{}`` raise ``TypeError``.
    """
    kinds = set(map(type, values))
    if _SCALAR_TYPES.issuperset(kinds):
        return _encode(values, 0)[1:-1].split(",\n")
    if len(kinds) > 1:
        raise TypeError
    kind = kinds.pop()
    inner = "\n" + "  " * (level + 1)
    outer = inner[:-2]
    if kind is dict:
        if len(set(map(tuple, values))) > 1 or set(map(type, values[0])) != {str}:
            raise TypeError  # {} included
        pieces = []
        for key in values[0]:
            head = ("," if pieces else "{") + inner + _encode(key, 0) + ": "
            column = _texts(list(map(operator.itemgetter(key), values)), level + 1)
            pieces += [itertools.repeat(head), column]
        return list(map("".join, zip(*pieces, itertools.repeat(outer + "}"))))
    if kind is not list and kind is not tuple:
        raise TypeError
    items = list(itertools.chain.from_iterable(values))
    if not _SCALAR_TYPES.issuperset(map(type, items)):
        texts = iter(_texts(items, level + 1))
        return [
            "[" + inner + ("," + inner).join(itertools.islice(texts, len(value))) + outer + "]"
            if value
            else "[]"
            for value in values
        ]
    text = _encode(values, level + 1)
    return [
        "[" + inner + body + outer + "]" if body else "[]"
        for body in text[2:-2].split("]," + inner + "[")
    ]


def write_json(obj, path: str) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, byte for byte (module docstring)."""
    try:
        text = _texts([obj], 0)[0]
    except (TypeError, RecursionError):  # json's refusal, or a reference cycle
        text = json.dumps(obj, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")
