"""Seeded inputs and command lines for the benchmark workloads.

Inputs come from numpy's PCG64 generator and the benchmark's own seed, never
from ``radclust.scenarios``, so a change to the library cannot alter the data.
The program under test receives only the generated CSV file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Case", "make_case"]

WORKLOADS = ("cluster-chain", "cluster-sparse", "trajectory-walkers")

# Full sizes, and the tiny sizes the smoke test runs.
_CHAIN_N = {False: 2000, True: 40}
_SPARSE_N = {False: 2000, True: 60}
_WALK_FRAMES_WALKERS = {False: (400, 100), True: (12, 16)}

# Chain geometry in units of r: consecutive points are 0.7 r apart with at
# most 0.05 r of jitter per axis, so every step stays below r (at most
# hypot(0.8, 0.1) r) and every second neighbour stays beyond it (at least
# 1.3 r).  The radius graph is then a path with hop diameter N - 1, which
# 10 squarings (2**10 = 1024 hops) never exhaust at N = 2000.
_CHAIN_SPACING = 0.7
_CHAIN_JITTER = 0.05

# Mean number of other points inside one r-disk.
_SPARSE_DENSITY = 0.5
_WALK_DENSITY = 2.0
# Random-walk step: standard deviation per axis and frame, in units of r.
_WALK_STEP = 0.06


@dataclass(frozen=True)
class Case:
    """One generated input and what the program is asked to do with it.

    ``frames`` holds one (N, 2) coordinate array per frame; a point CSV has a
    single frame.  Row ``i`` of every frame carries id ``ids[i]``.
    """

    workload: str
    radius: float
    ids: tuple[int, ...]
    frames: tuple[np.ndarray, ...]
    trajectory: bool
    svg: bool

    @property
    def n_points(self) -> int:
        return len(self.ids)

    def write_input(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if self.trajectory:
                fh.write("t,id,x,y\n")
                for t, coords in enumerate(self.frames):
                    for node_id, (x, y) in zip(self.ids, coords.tolist()):
                        fh.write(f"{float(t)!r},{node_id},{x!r},{y!r}\n")
            else:
                fh.write("id,x,y\n")
                for node_id, (x, y) in zip(self.ids, self.frames[0].tolist()):
                    fh.write(f"{node_id},{x!r},{y!r}\n")

    def outputs(self, out_dir: str) -> dict[str, str]:
        """Output files the program writes, by role."""
        if self.trajectory:
            names = {"frames": "frames.json", "events": "events.json"}
        else:
            names = {"labels": "labels.json"}
            if self.svg:
                names["svg"] = "plot.svg"
        return {role: os.path.join(out_dir, name) for role, name in names.items()}

    def argv(self, input_path: str, out_dir: str) -> list[str]:
        """Arguments of the ``radclust`` command for this case."""
        out = self.outputs(out_dir)
        common = ["--input", input_path, "--radius", repr(self.radius)]
        if self.trajectory:
            return ["trajectory", *common, "--out", out["frames"], "--events", out["events"]]
        argv = ["cluster", *common, "--out", out["labels"]]
        if self.svg:
            argv += ["--svg", out["svg"]]
        return argv


def _chain(rng: np.random.Generator, tiny: bool) -> Case:
    n = _CHAIN_N[tiny]
    radius = 1.0
    x = np.arange(n) * _CHAIN_SPACING + rng.uniform(-_CHAIN_JITTER, _CHAIN_JITTER, n)
    y = rng.uniform(-_CHAIN_JITTER, _CHAIN_JITTER, n)
    order = rng.permutation(n)
    coords = np.column_stack([x, y])[order]
    return Case(
        workload="cluster-chain",
        radius=radius,
        ids=tuple(int(i) for i in order),
        frames=(coords,),
        trajectory=False,
        svg=False,
    )


def _sparse(rng: np.random.Generator, tiny: bool) -> Case:
    n = _SPARSE_N[tiny]
    radius = math.sqrt(_SPARSE_DENSITY / (math.pi * n))
    return Case(
        workload="cluster-sparse",
        radius=radius,
        ids=tuple(range(n)),
        frames=(rng.random((n, 2)),),
        trajectory=False,
        svg=True,
    )


def _walkers(rng: np.random.Generator, tiny: bool) -> Case:
    n_frames, n = _WALK_FRAMES_WALKERS[tiny]
    radius = math.sqrt(_WALK_DENSITY / (math.pi * n))
    pos = rng.random((n, 2))
    frames = []
    for _ in range(n_frames):
        pos = pos + rng.normal(scale=_WALK_STEP * radius, size=(n, 2))
        pos = 1.0 - np.abs(1.0 - np.abs(pos))  # reflect into the unit square
        frames.append(pos)
    return Case(
        workload="trajectory-walkers",
        radius=radius,
        ids=tuple(range(n)),
        frames=tuple(frames),
        trajectory=True,
        svg=False,
    )


_MAKERS = {
    "cluster-chain": _chain,
    "cluster-sparse": _sparse,
    "trajectory-walkers": _walkers,
}


def make_case(workload: str, seed: int, tiny: bool = False) -> Case:
    """Generate the input of ``workload`` from ``seed`` (same seed, same input)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _MAKERS[workload](rng, tiny)
