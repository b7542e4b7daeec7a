"""Minimal deterministic SVG scatter plots of clustered points.

Plots are written with fixed number formatting and no timestamps or generated
ids, so identical inputs produce byte-identical files.  The viewport comes
from the data bounding box with a 5% margin per side.  An axis whose span is
at most 1/64 of the longer span borrows its margins from the longer span,
and the longer span is taken as at least 160 ulps of the largest coordinate
magnitude, so the page height lies between 10 and 640 * 64 pixels and every
marker lands inside it, at any coordinate scale.  Markers are filled
circles of fixed radius, colored by cluster rank (rank 1 red, rank 2 green,
rank 3 blue, then a fixed palette).  Each plot's labels must match its
points: the frame plots check their frames with their clusterings through
:func:`~radclust.trajectory.validate_frames`, a single plot its label count.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .clustering import ClusterTable, LabelVector, cluster_color_names
from .geometry import PointSet
from .trajectory import Frame, validate_frames

__all__ = ["render_points_svg", "render_frames_svg", "frame_svg_paths"]

_WIDTH = 640.0
_MARKER_RADIUS = 4.0
_THIN = 64.0  # a span at most 1/_THIN of the longer one borrows its margins
_ULPS = 160.0  # the longer span is at least this many ulps of the coordinates


def _bounds(coords: np.ndarray) -> tuple[float, float, float, float]:
    x0, y0 = coords.min(axis=0)
    x1, y1 = coords.max(axis=0)
    return float(x0), float(x1), float(y0), float(y1)


def render_points_svg(
    ps: PointSet,
    lv: LabelVector,
    table: ClusterTable,
    bounds: tuple[float, float, float, float] | None = None,
) -> str:
    """Render one clustered point set as an SVG document string.

    ``ValueError`` refuses points that are not 2-d, then a label count that
    is not the point count (``N labels for M points``).
    """
    if ps.dimension != 2:
        raise ValueError(f"SVG plots require 2-d points, got d={ps.dimension}")
    if len(lv) != len(ps):
        raise ValueError(f"{len(lv)} labels for {len(ps)} points")
    x0, x1, y0, y1 = bounds if bounds is not None else _bounds(ps.coords)
    # 5% margins per side.  An axis whose span is at most 1/64 of the longer
    # span (zero included) borrows its margins from the longer span, which is
    # 1 where both are 0 and at least 160 ulps of the largest coordinate
    # magnitude: no margin falls below 8 ulps, and the height lies within
    # [10, 640 * 64] with every marker inside.
    ulp = float(np.spacing(max(abs(x0), abs(x1), abs(y0), abs(y1))))
    span = max(max(x1 - x0, y1 - y0) or 1.0, _ULPS * ulp)
    mx, my = (0.05 * (s if s * _THIN > span else span) for s in (x1 - x0, y1 - y0))
    x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my
    scale = _WIDTH / (x1 - x0)
    height = (y1 - y0) * scale
    colors = cluster_color_names(table)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{height:.2f}" viewBox="0 0 {_WIDTH:.0f} {height:.2f}">',
        f'<rect width="{_WIDTH:.0f}" height="{height:.2f}" fill="white"/>',
    ]
    # Python floats format faster than numpy scalars; the arithmetic is the same.
    px = ((ps.coords[:, 0] - x0) * scale).tolist()
    py = (height - (ps.coords[:, 1] - y0) * scale).tolist()  # SVG y axis points down
    for x, y, label in zip(px, py, lv.labels.tolist()):
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{_MARKER_RADIUS:.0f}" fill="{colors[label]}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def frame_svg_paths(out_dir: str, n_frames: int) -> list[str]:
    """Paths of the per-frame SVGs in ``out_dir``: frame_0000.svg, ...

    Named by frame index, zero-padded to at least four digits and to the
    width of the last index, so they sort in time order.
    """
    width = max(4, len(str(n_frames - 1)))
    return [os.path.join(out_dir, f"frame_{idx:0{width}d}.svg") for idx in range(n_frames)]


def render_frames_svg(
    frames: Sequence[Frame],
    results: Sequence[tuple[LabelVector, ClusterTable]],
    out_dir: str,
) -> list[str]:
    """Write one SVG per frame into ``out_dir``, sharing a global viewport.

    Returns the written paths, those of ``frame_svg_paths``.  Before
    ``out_dir`` is made, ``ValueError`` is :func:`validate_frames`' refusal
    of ``frames`` with ``results`` (a length mismatch first).
    """
    validate_frames(frames, results)
    all_coords = np.vstack([frame.points.coords for frame in frames])
    bounds = _bounds(all_coords)
    os.makedirs(out_dir, exist_ok=True)
    paths = frame_svg_paths(out_dir, len(frames))
    for path, frame, (lv, table) in zip(paths, frames, results):
        doc = render_points_svg(frame.points, lv, table, bounds=bounds)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    return paths
