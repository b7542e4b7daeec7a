"""Command-line front end.

Four commands:

* ``cluster``    label a point CSV, write the JSON report, optionally an SVG.
* ``generate``   emit a synthetic scenario as a point CSV.
* ``trajectory`` cluster a trajectory CSV per frame, write frames and events
  JSON, optionally per-frame SVGs.
* ``bench``      compare multiplication counts of the sequential and
  repeated-squaring power methods over a list of sizes.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.  Every
error path prints a single ``error: ...`` line to stderr, and a failed run
leaves none of the output files it created.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import time
from contextlib import contextmanager, suppress

import numpy as np

from .clustering import cluster_pointset, mask_labels
from .geometry import ClusteringConfig, PointSet, build_adjacency, require_memory
from .io import (
    cluster_payload,
    events_payload,
    frames_payload,
    project_equirect,
    read_points_csv,
    read_trajectory_csv,
    write_json,
    write_points_csv,
)
from .matpower import (
    POWER_PEAK_BYTES_PER_ENTRY,
    make_power_plan,
    power_fast,
    power_naive_oracle,
)
from .scenarios import SCENARIO_KINDS, generate
from .svgplot import frame_svg_paths, render_frames_svg, render_points_svg
from .trajectory import cluster_frames, detect_events

__all__ = ["main"]

# Sizes above this run only the repeated-squaring path in ``bench``; the
# sequential method needs floor(n/2) - 1 full products and gets slow fast.
NAIVE_BENCH_LIMIT = 64


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the normal
    # input-error path (exit 1) instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radclust",
        description="Cluster points by radius-graph connectivity and rank clusters by size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser(
        "cluster", help="label a point CSV and rank clusters by size"
    )
    cluster.add_argument("--input", required=True, help="point CSV (id,x,y[,z...])")
    cluster.add_argument("--radius", type=float, required=True, help="neighbor radius r")
    cluster.add_argument("--out", required=True, help="labels JSON output path")
    cluster.add_argument("--svg", help="optional SVG scatter plot path (2-d only)")

    gen = sub.add_parser("generate", help="emit a synthetic scenario as a point CSV")
    gen.add_argument(
        "--kind", required=True, help=f"one of: {', '.join(SCENARIO_KINDS)}"
    )
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter, repeatable (e.g. --param n=14 --param spacing=1.35)",
    )
    gen.add_argument("--seed", type=int, help="seed for stochastic kinds (default 0)")
    gen.add_argument("--out", required=True, help="point CSV output path")

    traj = sub.add_parser(
        "trajectory", help="cluster a trajectory per frame and detect split/merge events"
    )
    traj.add_argument("--input", required=True, help="trajectory CSV (t,id,x,y[,...])")
    traj.add_argument("--radius", type=float, required=True, help="neighbor radius r")
    traj.add_argument("--out", required=True, help="frames JSON output path")
    traj.add_argument(
        "--events", help="events JSON output path (default: events.json next to --out)"
    )
    traj.add_argument("--svg", help="optional directory for per-frame SVG plots")
    traj.add_argument(
        "--project",
        choices=["equirect"],
        help="treat coordinates as lat,lon degrees and project to local planar meters",
    )

    bench = sub.add_parser(
        "bench", help="report matrix-power multiplication counts over a size list"
    )
    bench.add_argument(
        "--bench-n", required=True, help="comma-separated node counts, e.g. 2,7,10,100,1000"
    )
    bench.add_argument("--out", required=True, help="bench JSON output path")
    bench.add_argument("--seed", type=int, default=0, help="seed for the random inputs")
    bench.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock seconds (non-deterministic) in the report",
    )
    return parser


def _check_svg(args, ps: PointSet) -> None:
    # Checked before any output is written, so a bad --svg leaves no files.
    if args.svg and ps.dimension != 2:
        raise ValueError(f"--svg needs 2-d points, got d={ps.dimension}")


def _check_distinct_outputs(*flagged: tuple[str, str | None]) -> None:
    """Refuse two ``(flag, path)`` pairs on one file; call before writing.

    Pass the input with the outputs, so that no output overwrites it.
    """
    seen = {}
    for flag, path in flagged:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(
                    f"--{seen[real]} and --{flag} name the same file {path!r}"
                )
            seen[real] = flag


def _remove(path: str) -> None:
    with suppress(OSError):
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


@contextmanager
def _removed_on_error(*paths):
    """Delete the outputs a failing block created under ``paths``.

    A path that did not exist before the block is deleted whole (a directory
    with everything in it); from a directory that did exist, only the
    entries the block added are deleted.  Files that existed stay.
    """
    before = {}
    for path in filter(None, paths):
        if os.path.isdir(path):
            before[path] = set(os.listdir(path))
        elif not os.path.lexists(path):
            before[path] = None
    try:
        yield
    except BaseException:
        for path, entries in before.items():
            if entries is None:
                _remove(path)
                continue
            with suppress(OSError):
                for name in set(os.listdir(path)) - entries:
                    _remove(os.path.join(path, name))
        raise


def _cmd_cluster(args) -> None:
    _check_distinct_outputs(("input", args.input), ("out", args.out), ("svg", args.svg))
    cfg = ClusteringConfig(radius=args.radius)
    ps = read_points_csv(args.input)
    _check_svg(args, ps)
    lv, table = cluster_pointset(ps, cfg)
    with _removed_on_error(args.out, args.svg):
        write_json(cluster_payload(cfg.radius, lv, table), args.out)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_points_svg(ps, lv, table))


_PARAM_RE = re.compile(r"(?P<key>[A-Za-z_][A-Za-z0-9_]*)=(?P<value>.+)\Z")


def _parse_params(items: list[str]) -> dict:
    params = {}
    for item in items:
        match = _PARAM_RE.match(item)
        if not match:
            raise ValueError(f"invalid --param {item!r}: expected KEY=VALUE")
        key, raw = match.group("key"), match.group("value")
        try:
            value = int(raw) if re.fullmatch(r"[+-]?\d+", raw) else float(raw)
        except ValueError:
            raise ValueError(
                f"invalid --param {item!r}: value must be a number"
            ) from None
        params[key] = value
    return params


def _cmd_generate(args) -> None:
    ps = generate(args.kind, _parse_params(args.param), args.seed)
    write_points_csv(ps, args.out)


def _cmd_trajectory(args) -> None:
    cfg = ClusteringConfig(radius=args.radius)
    events_path = args.events or os.path.join(
        os.path.dirname(args.out) or ".", "events.json"
    )
    frames = read_trajectory_csv(args.input)
    svg_files = frame_svg_paths(args.svg, len(frames)) if args.svg else []
    _check_distinct_outputs(
        ("input", args.input),
        ("out", args.out),
        ("events", events_path),
        ("svg", args.svg),
        *(("svg", path) for path in svg_files),
    )
    if args.project == "equirect":
        frames = project_equirect(frames)
    _check_svg(args, frames[0].points)
    results = cluster_frames(frames, cfg)
    events = detect_events(results, frames)
    with _removed_on_error(args.out, events_path, args.svg):
        write_json(frames_payload(cfg.radius, frames, results), args.out)
        write_json(events_payload(events), events_path)
        if args.svg:
            render_frames_svg(frames, results, args.svg)


def _parse_bench_ns(raw: str) -> list[int]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("--bench-n must list at least one node count")
    ns = []
    for item in items:
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"invalid --bench-n entry {item!r}") from None
        if n < 1:
            raise ValueError(f"--bench-n entries must be >= 1, got {n}")
        ns.append(n)
    return ns


def _cmd_bench(args) -> None:
    ns = _parse_bench_ns(args.bench_n)
    for n in ns:
        need = POWER_PEAK_BYTES_PER_ENTRY * n * n
        require_memory(need, f"--bench-n {n} needs {need} bytes for the squarings")
    rng = np.random.default_rng(args.seed)
    records = []
    for n in ns:
        # Random geometric instance with expected degree of a few neighbors.
        ps = PointSet(rng.random((n, 2)))
        cfg = ClusteringConfig(radius=1.2 / np.sqrt(n))
        adjacency = build_adjacency(ps, cfg)
        plan = make_power_plan(n)
        start = time.perf_counter()
        g_fast, fast_mults = power_fast(adjacency)
        wall = time.perf_counter() - start
        record = {
            "n": n,
            "k": plan.k,
            "m": plan.m,
            "naive_mults": plan.naive_mults,
            "fast_mults": fast_mults,
            "naive_executed": n <= NAIVE_BENCH_LIMIT,
            "partitions_match": None,
        }
        if n <= NAIVE_BENCH_LIMIT:
            g_naive = power_naive_oracle(adjacency)
            record["partitions_match"] = bool(
                mask_labels(g_fast) == mask_labels(g_naive)
            )
        if args.timing:
            record["wall_seconds"] = wall
        records.append(record)
    write_json(records, args.out)


_HANDLERS = {
    "cluster": _cmd_cluster,
    "generate": _cmd_generate,
    "trajectory": _cmd_trajectory,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations surface here
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
