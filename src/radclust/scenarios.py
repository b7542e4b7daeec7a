"""Deterministic generators for synthetic test scenes.

Each generator documents the cluster structure its output is guaranteed to
have, in terms of the clustering radius ``r`` the caller plans to use.  The
guarantees are geometric (spacings chosen strictly below or above ``r``), so
the expected partition is known by construction and can be checked against
the pipeline and the components oracle.

Stochastic kinds draw from ``numpy.random.default_rng`` (the PCG64 generator,
seedable with a defined output sequence), so the same parameters and seed reproduce
the same coordinates bit for bit on every platform.
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Callable

import numpy as np

from .geometry import PointSet

__all__ = [
    "SCENARIO_KINDS",
    "DENSITY_PER_DISK",
    "generate",
    "chain_points",
    "thick_chain_points",
    "blob_points",
    "ring_points",
    "forked_branch_points",
    "dense_core_with_scatter_points",
    "uniform_random_points",
    "field_side",
    "shape_showcase",
]

# Expected points per radius-disk for the named field densities.  At ~0.5 a
# field splinters into many tiny clusters, at ~2 chains form, at ~8 almost
# everything fuses.
DENSITY_PER_DISK = {"low": 0.5, "medium": 2.0, "high": 8.0}


def _positive(name: str, value) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return v


def _count(name: str, value) -> int:
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, nan
        n = 0
    if n < 1 or n != value:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return n


def chain_points(n, spacing) -> PointSet:
    """``n`` points in single file along the x axis, ``spacing`` apart.

    One cluster when ``spacing < r``; ``n`` singletons when ``spacing > r``.
    """
    n = _count("n", n)
    spacing = _positive("spacing", spacing)
    coords = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return PointSet(coords)


def thick_chain_points(n, spacing, width) -> PointSet:
    """A two-row zigzag chain: odd-index points sit ``width`` above the axis.

    One cluster when ``hypot(spacing, width) < r``.
    """
    n = _count("n", n)
    spacing = _positive("spacing", spacing)
    width = _positive("width", width)
    coords = np.column_stack([np.arange(n) * spacing, (np.arange(n) % 2) * width])
    return PointSet(coords)


def blob_points(n, spacing, jitter, seed=0) -> PointSet:
    """A compact crowd: a square grid of pitch ``spacing``, jittered.

    Each point moves at most ``jitter`` per axis, so grid neighbors stay
    within ``hypot(spacing + 2 * jitter, 2 * jitter)``; one cluster when that
    bound is below ``r``.
    """
    n = _count("n", n)
    spacing = _positive("spacing", spacing)
    jitter = _positive("jitter", jitter)
    cols = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    base = np.column_stack([(idx % cols) * spacing, (idx // cols) * spacing])
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-jitter, jitter, size=(n, 2))
    return PointSet(base + offsets)


def ring_points(n, ring_radius) -> PointSet:
    """``n`` points evenly spaced on a circle of radius ``ring_radius``.

    Adjacent spacing is the chord ``2 * ring_radius * sin(pi / n)``; one
    cluster when that chord is below ``r``.  The shape's centroid is the
    circle center, at distance ``ring_radius`` from every point, so for
    ``ring_radius > r`` no point lies within ``r`` of the centroid.
    """
    n = _count("n", n)
    ring_radius = _positive("ring_radius", ring_radius)
    angles = 2.0 * np.pi * np.arange(n) / n
    coords = ring_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return PointSet(coords)


def forked_branch_points(n_trunk, n_branch, n_tail, spacing, height) -> PointSet:
    """A trunk that forks into two arcs which bow apart and rejoin.

    The trunk runs along the x axis, splits into mirrored sine arcs of
    ``n_branch`` points each reaching ``height`` off axis, then a tail
    continues on axis.  One cluster when consecutive along-path steps stay
    below ``r``; the arcs separate by up to ``2 * height`` mid-fork.
    """
    n_trunk = _count("n_trunk", n_trunk)
    n_branch = _count("n_branch", n_branch)
    n_tail = _count("n_tail", n_tail)
    spacing = _positive("spacing", spacing)
    height = _positive("height", height)
    trunk = np.column_stack([np.arange(n_trunk) * spacing, np.zeros(n_trunk)])
    x0 = n_trunk * spacing
    j = np.arange(n_branch)
    bx = x0 + j * spacing
    by = height * np.sin(np.pi * (j + 1) / (n_branch + 1))
    upper = np.column_stack([bx, by])
    lower = np.column_stack([bx, -by])
    x1 = x0 + n_branch * spacing
    tail = np.column_stack([x1 + np.arange(n_tail) * spacing, np.zeros(n_tail)])
    return PointSet(np.vstack([trunk, upper, lower, tail]))


def dense_core_with_scatter_points(
    n_core, n_scatter, core_radius, scatter_inner, scatter_outer, seed=0
) -> PointSet:
    """A dense crowd in a small disk, surrounded by lightly scattered nodes.

    Core points (ids 0..n_core-1) are uniform in the disk of ``core_radius``
    around the origin; scatter points are area-uniform in the annulus between
    ``scatter_inner`` and ``scatter_outer``.  Guarantees, given radius ``r``:
    the core is one complete cluster when ``2 * core_radius < r``; it never
    links to the scatter when ``scatter_inner > core_radius + r``; and it is
    the rank-1 cluster whenever ``n_scatter < n_core``.
    """
    n_core = _count("n_core", n_core)
    n_scatter = _count("n_scatter", n_scatter)
    core_radius = _positive("core_radius", core_radius)
    scatter_inner = _positive("scatter_inner", scatter_inner)
    scatter_outer = _positive("scatter_outer", scatter_outer)
    if not core_radius < scatter_inner < scatter_outer:
        raise ValueError(
            "need core_radius < scatter_inner < scatter_outer, got "
            f"{core_radius}, {scatter_inner}, {scatter_outer}"
        )
    rng = np.random.default_rng(seed)
    core_rad = core_radius * np.sqrt(rng.random(n_core))
    core_ang = 2.0 * np.pi * rng.random(n_core)
    scat_rad = np.sqrt(
        scatter_inner**2
        + rng.random(n_scatter) * (scatter_outer**2 - scatter_inner**2)
    )
    scat_ang = 2.0 * np.pi * rng.random(n_scatter)
    rad = np.concatenate([core_rad, scat_rad])
    ang = np.concatenate([core_ang, scat_ang])
    coords = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return PointSet(coords)


def uniform_random_points(n, side, seed=0) -> PointSet:
    """``n`` points uniform in the square [0, side) x [0, side)."""
    n = _count("n", n)
    side = _positive("side", side)
    rng = np.random.default_rng(seed)
    return PointSet(rng.random((n, 2)) * side)


def field_side(n, radius, points_per_disk) -> float:
    """Square side giving an expected ``points_per_disk`` nodes per r-disk."""
    n = _count("n", n)
    radius = _positive("radius", radius)
    points_per_disk = _positive("points_per_disk", points_per_disk)
    return math.sqrt(n * math.pi * radius**2 / points_per_disk)


_BUILDERS: dict[str, Callable[..., PointSet]] = {
    "chain": chain_points,
    "thick-chain": thick_chain_points,
    "blob": blob_points,
    "ring": ring_points,
    "forked-branch": forked_branch_points,
    "dense-core-with-scatter": dense_core_with_scatter_points,
    "uniform-random": uniform_random_points,
}

SCENARIO_KINDS = tuple(_BUILDERS)


def generate(
    kind: str, params: dict[str, Any] | None = None, seed: int | None = None
) -> PointSet:
    """Build the scenario ``kind`` from its builder's keyword ``params``.

    ``seed`` reaches only the builders that take one, the stochastic kinds;
    ``params`` may not hold it.
    The same (kind, params, seed) triple always yields bit-identical
    coordinates.
    """
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown scenario kind {kind!r}; expected one of {', '.join(SCENARIO_KINDS)}"
        )
    params = dict(params or {})
    if "seed" in params:
        raise ValueError(f"scenario {kind!r}: give the seed as the seed argument (--seed)")
    if seed is not None and "seed" in inspect.signature(builder).parameters:
        params["seed"] = seed
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"scenario {kind!r}: {exc}") from None


def shape_showcase(radius: float, seed: int = 0) -> PointSet:
    """A scene of seven well-separated groups of varied shapes.

    Group sizes are 19 (crowd), 14 (single-file chain), 13 (thick chain),
    10 (forked branch), 8 (small ring), 3 (short chain) and 1 (lone node),
    so clustering at ``radius`` returns seven clusters with top-3 sizes
    19, 14, 13.  Groups sit on a coarse grid 40 radii apart and can never
    bridge.
    """
    r = _positive("radius", radius)
    groups = [
        blob_points(19, spacing=0.6 * r, jitter=0.15 * r, seed=seed),
        chain_points(14, spacing=0.9 * r),
        thick_chain_points(13, spacing=0.45 * r, width=0.4 * r),
        forked_branch_points(2, 3, 2, spacing=0.5 * r, height=1.0 * r),
        ring_points(8, ring_radius=1.2 * r),
        chain_points(3, spacing=0.9 * r),
        chain_points(1, spacing=r),
    ]
    placed = [
        g.coords + np.array([40.0 * r * (i % 4), 40.0 * r * (i // 4)])
        for i, g in enumerate(groups)
    ]
    return PointSet(np.vstack(placed))
