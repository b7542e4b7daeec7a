"""Output checker that shares no code with radclust.

It builds its own radius graph with the same strict
``sqrt(sum((a - b)**2)) < r`` expression the program's contract names
(``d**2 < r**2`` disagrees with it near the boundary), takes connected
components with scipy, and derives from them the exact label numbering
(dense, in order of each cluster's lowest row index), the size-ranked
cluster table, the split/merge events and the SVG marker colours.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["Expected", "expected_for", "check_outputs"]

# Rows of the distance block computed at once; bounds the checker's memory.
_CHUNK = 256
_TOP_COLORS = ("red", "green", "blue")
_CIRCLE_FILL = re.compile(r'<circle [^>]*fill="([^"]+)"')


@dataclass(frozen=True)
class Expected:
    """The correct result for one generated case."""

    labels: tuple[np.ndarray, ...]  # one dense 1..C label array per frame
    edges: int  # undirected radius-graph edges, summed over frames
    events: list[dict]  # empty for point CSVs

    @property
    def clusters(self) -> int:
        return sum(int(lab.max()) for lab in self.labels)


def _components(coords: np.ndarray, radius: float) -> tuple[np.ndarray, int]:
    n = coords.shape[0]
    rows, cols = [], []
    for start in range(0, n, _CHUNK):
        diff = coords[start : start + _CHUNK, None, :] - coords[None, :, :]
        i, j = np.nonzero(np.sqrt((diff**2).sum(axis=-1)) < radius)
        rows.append(i + start)
        cols.append(j)
    i, j = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(n, n))
    _, comp = connected_components(graph.tocsr(), directed=False)
    # Renumber components 1..C by their lowest row index.
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    self_loops = int(np.count_nonzero(i == j))
    return rank[comp], (i.size - self_loops) // 2


def _cluster_records(labels: np.ndarray) -> list[dict]:
    sizes = np.bincount(labels)[1:]
    ranking = sorted(range(1, sizes.size + 1), key=lambda c: (-sizes[c - 1], c))
    return [
        {"label": c, "size": int(sizes[c - 1]), "rank": rank}
        for rank, c in enumerate(ranking, start=1)
    ]


def _events(case, labels: tuple[np.ndarray, ...]) -> list[dict]:
    events = []
    for t in range(1, len(labels)):
        prev, cur = labels[t - 1].tolist(), labels[t].tolist()
        children, parents = {}, {}
        for p, c in zip(prev, cur):
            children.setdefault(p, set()).add(c)
            parents.setdefault(c, set()).add(p)
        found = []
        for p, cs in children.items():
            if len(cs) >= 2:
                members = sorted(i for i, q in zip(case.ids, prev) if q == p)
                found.append(("split", [p], sorted(cs), members))
        for c, ps in parents.items():
            if len(ps) >= 2:
                members = sorted(i for i, q in zip(case.ids, cur) if q == c)
                found.append(("merge", sorted(ps), [c], members))
        found.sort(key=lambda e: (e[0] != "split", e[3][0]))
        events += [
            {"t": float(t), "kind": k, "parents": p, "children": c, "member_ids": m}
            for k, p, c, m in found
        ]
    return events


def expected_for(case) -> Expected:
    labels, edges = [], 0
    for coords in case.frames:
        lab, e = _components(coords, case.radius)
        labels.append(lab)
        edges += e
    labels = tuple(labels)
    return Expected(
        labels=labels,
        edges=edges,
        events=_events(case, labels) if case.trajectory else [],
    )


def _check_partition(doc: dict, labels: np.ndarray, where: str) -> list[str]:
    errors = []
    if doc.get("labels") != labels.tolist():
        errors.append(f"{where}: labels differ from the radius-graph components")
    records = doc.get("clusters")
    want = _cluster_records(labels)
    got = [{k: r.get(k) for k in ("label", "size", "rank")} for r in records or []]
    if got != want:
        errors.append(f"{where}: cluster table is not the size ranking of the components")
    elif [r.get("color") for r in records[:3]] != list(_TOP_COLORS[: len(records)]):
        errors.append(f"{where}: ranks 1-3 are not coloured red, green, blue")
    return errors


def _check_svg(text: str, doc: dict, labels: np.ndarray) -> list[str]:
    color_of = {r["label"]: r["color"] for r in doc["clusters"]}
    fills = _CIRCLE_FILL.findall(text)
    if fills != [color_of[int(c)] for c in labels]:
        return ["svg: markers do not match the points and their cluster colours"]
    return []


def check_outputs(case, expected: Expected, paths: dict[str, str]) -> list[str]:
    """Return the ways the files at ``paths`` deviate from the correct result."""
    try:
        docs = {}
        for role, path in paths.items():
            with open(path, encoding="utf-8") as fh:
                docs[role] = fh.read() if role == "svg" else json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if not case.trajectory:
        doc = docs["labels"]
        errors = _check_partition(doc, expected.labels[0], "labels.json")
        if doc.get("n") != case.n_points or doc.get("radius") != case.radius:
            errors.append("labels.json: wrong n or radius")
        if not errors and "svg" in docs:
            errors += _check_svg(docs["svg"], doc, expected.labels[0])
        return errors
    frames = docs["frames"].get("frames") or []
    if len(frames) != len(case.frames) or docs["frames"].get("radius") != case.radius:
        return ["frames.json: wrong frame count or radius"]
    errors = []
    for t, (doc, labels) in enumerate(zip(frames, expected.labels)):
        if doc.get("t") != float(t) or doc.get("ids") != list(case.ids):
            errors.append(f"frame {t}: wrong timestamp or ids")
        errors += _check_partition(doc, labels, f"frame {t}")
    if docs["events"] != expected.events:
        errors.append("events.json: split/merge events differ from the components")
    return errors
