"""Independent oracles and fixture builders shared across the test suite.

Everything here is deliberately written against different primitives than
the library under test: hop distances come from per-source BFS, integer
matrix products come straight from numpy, adjacency patterns are spelled
out index-by-index, CSV files are decoded one line and read one record at
a time, and SVG markers are placed and formatted one point at a time.
"""

import contextlib
import csv
import math
import os
from collections import deque

import numpy as np
import pytest

from radclust.clustering import cluster_color_names


def chain_bits(n):
    """Adjacency of n collinear points with only nearest neighbours in range."""
    idx = np.arange(n)
    return (np.abs(np.subtract.outer(idx, idx)) <= 1).astype(bool)


def random_adjacency(rng, n, p):
    """Random symmetric boolean matrix with an all-ones diagonal."""
    upper = rng.random((n, n)) < p
    bits = upper | upper.T
    np.fill_diagonal(bits, True)
    return bits


def bfs_hop_distances(bits):
    """All-pairs hop counts by repeated BFS; unreachable pairs get n + 1."""
    bits = np.asarray(bits, dtype=bool)
    n = bits.shape[0]
    dist = np.full((n, n), n + 1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(bits[v]):
                if dist[s, w] > dist[s, v] + 1:
                    dist[s, w] = dist[s, v] + 1
                    queue.append(w)
    return dist


def binarized_int_power(bits, k):
    """Binarize the k-fold integer matrix power (k >= 1)."""
    mat = np.asarray(bits, dtype=np.int64)
    return np.linalg.matrix_power(mat, k) > 0


def pairwise_adjacency(coords, radius):
    """Adjacency from per-pair distances in plain Python, squares added left to right."""
    coords = np.asarray(coords, dtype=float).tolist()
    n = len(coords)
    bits = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            total = 0.0
            for a, b in zip(coords[i], coords[j]):
                total += (a - b) * (a - b)
            bits[i, j] = math.sqrt(total) < radius
    return bits


def grid_slots(coords, side):
    """Cell numbers of the grid over the first three axes, one axis at a time.

    Each axis's distinct floors ``floor(x / side)`` are numbered in order
    from 1, skipping one number between floors that are not exactly 1.0
    apart, so two points are in neighbouring cells on an axis exactly when
    their numbers differ by at most 1.
    """
    coords = np.asarray(coords, dtype=float)
    m = min(coords.shape[1], 3)
    slots = np.empty((coords.shape[0], m), dtype=np.int64)
    for axis in range(m):
        floors, rank = np.unique(np.floor(coords[:, axis] / side), return_inverse=True)
        numbers = [1]
        for lo, hi in zip(floors[:-1], floors[1:]):
            numbers.append(numbers[-1] + (1 if hi - lo == 1.0 else 2))
        slots[:, axis] = np.array(numbers)[rank]
    return slots


def grid_candidate_counts(coords, side):
    """How often the grid candidates hold each pair, counting both orders.

    Entry (i, j) is 2 when points i and j share a cell (so every diagonal
    entry is 2), 1 when their cells are distinct neighbours and 0 otherwise.
    """
    slots = grid_slots(coords, side)
    gap = np.abs(slots[:, None, :] - slots[None, :, :]).max(axis=-1)
    return np.where(gap == 0, 2, np.where(gap == 1, 1, 0))


def partition_sets(labels):
    """Turn a label sequence into a frozenset-of-frozensets partition."""
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


# Trajectory files with faults in two frames, and the fault the reader names
# (after the path).  The ids change at t=1.0, and t=2.0 breaks a rule of its
# own point set, which the reader finds while it builds the frames.
_IDS_CHANGE = "t,id,x,y\n0,a,0,0\n0,b,1,0\n1,a,0,0\n1,c,1,0\n"
_AT_T1 = "frame t=1.0: node ids do not match the first frame (missing ['b'], extra ['c'])"
FIRST_BAD_FRAME_FILES = [
    pytest.param(_IDS_CHANGE + "2,a,0,0\n2,a,1,0\n", _AT_T1, id="then-a-duplicate-id"),
    pytest.param(_IDS_CHANGE + "2,a,0,0\n2,b,1e-200,0\n", _AT_T1, id="then-an-unsafe-coordinate"),
    # No frame comes before the first frame's own fault.
    pytest.param(
        "t,id,x,y\n0,a,0,0\n0,a,1,0\n1,a,0,0\n1,c,1,0\n",
        "frame t=0.0: duplicate point id 'a'",
        id="a-duplicate-id-first",
    ),
]


def _parse_float(token, path, line_no, what):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: invalid {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: non-finite {what} {token!r}")
    return value


def _records(lines, path):
    reader = csv.reader(lines)
    line_no = 1
    try:
        for row in reader:
            if row:
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from None


def read_csv_by_record(path, lead):
    """Raw ids and float block of a point or trajectory CSV, one record at a time.

    The reference ``radclust.io._read_csv`` must match, written apart from
    it: ``lead`` is ``("id",)`` or ``("t", "id")``.  Where ``_read_csv``
    decodes the whole file and walks it with one ``csv.reader``, this reader
    decodes each physical line (ended by ``\r\n``, ``\r`` or ``\n``, kept
    on the line) on its own first, so a byte that is not UTF-8 is reported
    before any record is looked at.  Then each record is checked in full
    (field count, timestamp, timestamp order, coordinates) before the next,
    so the first malformed record is the one reported, with the physical
    line it starts on.
    """
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines(keepends=True)
    lines = []
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: line {line_no}: can't decode byte 0x{raw[exc.start]:02x} "
                f"as UTF-8: {exc.reason}"
            ) from None
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]  # a byte-order mark
    id_col = len(lead) - 1
    raw_ids = []
    block = []
    records = _records(lines, path)
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
        values += [_parse_float(c, path, line_no, "coordinate") for c in row[id_col + 1 :]]
        raw_ids.append(row[id_col].strip())
        block.append(values)
    if not raw_ids:
        raise ValueError(f"{path}: no data rows")
    return raw_ids, np.array(block)


def render_points_svg_by_point(ps, lv, table, bounds=None):
    """The SVG of ``svgplot.render_points_svg``, each point formatted on its own.

    Each marker's position is computed from the point's two numpy scalars
    and formatted from them, one point at a time.  The margins are the 5%
    ones alone, a zero span borrowing the longer one: the renderer's differ
    where a nonzero span is at most 1/64 of the other, or where the longer
    span is below 160 ulps of the largest coordinate magnitude.
    """
    coords = ps.coords
    if bounds is None:
        (x0, y0), (x1, y1) = coords.min(axis=0), coords.max(axis=0)
        x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    else:
        x0, x1, y0, y1 = bounds
    fallback = max(x1 - x0, y1 - y0) or 1.0
    mx = 0.05 * ((x1 - x0) if x1 > x0 else fallback)
    my = 0.05 * ((y1 - y0) if y1 > y0 else fallback)
    x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my
    scale = 640.0 / (x1 - x0)
    height = (y1 - y0) * scale
    colors = cluster_color_names(table)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'height="{height:.2f}" viewBox="0 0 640 {height:.2f}">',
        f'<rect width="640" height="{height:.2f}" fill="white"/>',
    ]
    for (x, y), label in zip(coords, lv.labels):
        px = (x - x0) * scale
        py = height - (y - y0) * scale
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{colors[int(label)]}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


@contextlib.contextmanager
def piped(data):
    """A ``/dev/fd`` path that reads ``data`` from a pipe, as a shell's ``<(...)`` does.

    The pipe is filled and its write end closed first, so ``data`` must fit
    in the pipe's buffer; both ends are closed on exit.
    """
    read_fd, write_fd = os.pipe()
    try:
        try:
            written = os.write(write_fd, data)
        finally:
            os.close(write_fd)
        assert written == len(data)
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
