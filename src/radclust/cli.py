"""Command-line front end.

Four commands:

* ``cluster``    label a point CSV, write the JSON report, optionally an SVG.
* ``generate``   emit a synthetic scenario as a point CSV.
* ``trajectory`` cluster a trajectory CSV per frame, write frames and events
  JSON, optionally per-frame SVGs.
* ``bench``      compare multiplication counts of the sequential and
  repeated-squaring power methods over a list of sizes, and check both
  partitions against the pipeline's; only it loads ``matpower``.

Exit codes: 0 success, 1 input error (an input too large for memory
included), 2 internal invariant violation.  Every error path prints a single
``error: ...`` line to stderr.  One guard per run (``_outputs``) refuses an
output that names the input or another output before any clustering, and
on failure removes the output files and directories the run created.

``run`` is the process entry of both ``radclust`` and ``python -m radclust``.
It calls ``main``, flushes stdout and stderr, and ends the process with
``os._exit``, skipping the interpreter's teardown, which would only free
what the process is about to give back: ``main`` has written and closed
every output by then, and radclust registers no ``atexit`` hook and starts
no thread.  So ``atexit`` hooks registered by anything else do not run.
A stream closed before the process started (``sys.stdout`` is then
``None``) is not flushed, so a run with its stdout closed still exits 0; a
flush that fails, as when a reader has closed the pipe, exits 1 with one
``error: ...`` line.  ``main`` itself returns its exit code, for callers in
the same process.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager, suppress

import numpy as np

from .clustering import cluster_labels, cluster_pointset
from .geometry import ClusteringConfig, PointSet, build_adjacency
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
from .scenarios import SCENARIO_KINDS, generate
from .svgplot import frame_svg_paths, render_frames_svg, render_points_svg
from .trajectory import cluster_frames, detect_events

__all__ = ["main", "run"]

# ``bench`` runs both power methods and checks them against the pipeline only
# up to this size; the sequential method needs floor(n/2) - 1 full products
# and gets slow fast.  Above it a record holds the plan's counts alone.
NAIVE_BENCH_LIMIT = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the normal
    # input-error path (exit 1) instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


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
    return parser


def _check_svg(args, ps: PointSet) -> None:
    # Refused before any clustering runs, with the flag's own message.
    if args.svg and ps.dimension != 2:
        raise ValueError(f"--svg needs 2-d points, got d={ps.dimension}")


@contextmanager
def _outputs(source, *outputs, svg_dir=None):
    """Guard one command run's outputs.

    ``outputs`` are the ``(flag, path)`` pairs of every file the block may
    write, a path ``None`` when its flag is not given; ``svg_dir`` is a
    directory it may create with ``os.makedirs``.  On entry, two of the input
    ``source``, the outputs and ``svg_dir`` that name one file are refused.
    If the block fails, the output files, ``svg_dir`` and its parents that
    did not exist on entry are removed: files first, then directories,
    innermost first, with ``os.rmdir``, which leaves a directory holding
    anything else.  Nothing else is touched.
    """
    seen = {}
    for flag, path in [("input", source), *outputs, ("svg", svg_dir)]:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ValueError(
                    f"--{seen[real]} and --{flag} name the same file {path!r}"
                )
            seen[real] = flag
    new = [(os.remove, path) for _, path in outputs if path and not os.path.lexists(path)]
    path = os.path.normpath(svg_dir) if svg_dir else ""
    while path and not os.path.lexists(path):
        new.append((os.rmdir, path))
        path = os.path.dirname(path)
    try:
        yield
    except BaseException:
        for remove, path in new:
            with suppress(OSError):
                remove(path)
        raise


def _cmd_cluster(args) -> None:
    with _outputs(args.input, ("out", args.out), ("svg", args.svg)):
        cfg = ClusteringConfig(radius=args.radius)
        ps = read_points_csv(args.input)
        _check_svg(args, ps)
        lv, table = cluster_pointset(ps, cfg)
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
        if key in params:
            raise ValueError(f"--param {key} is given more than once")
        try:
            value = int(raw) if re.fullmatch(r"[+-]?\d+", raw) else float(raw)
        except ValueError:
            raise ValueError(
                f"invalid --param {item!r}: value must be a number"
            ) from None
        params[key] = value
    return params


def _cmd_generate(args) -> None:
    with _outputs(None, ("out", args.out)):
        ps = generate(args.kind, _parse_params(args.param), args.seed)
        write_points_csv(ps, args.out)


def _cmd_trajectory(args) -> None:
    cfg = ClusteringConfig(radius=args.radius)
    events_path = args.events or os.path.join(
        os.path.dirname(args.out) or ".", "events.json"
    )
    frames = read_trajectory_csv(args.input)
    svg_files = frame_svg_paths(args.svg, len(frames)) if args.svg else []
    with _outputs(
        args.input,
        ("out", args.out),
        ("events", events_path),
        *(("svg", path) for path in svg_files),
        svg_dir=args.svg,
    ):
        if args.project == "equirect":
            frames = project_equirect(frames)
        _check_svg(args, frames[0].points)
        results = cluster_frames(frames, cfg)
        events = detect_events(results, frames)
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
    from .matpower import make_power_plan, mask_labels, power_fast, power_naive_oracle
    with _outputs(None, ("out", args.out)):
        rng = np.random.default_rng(args.seed)
        records = []
        for n in _parse_bench_ns(args.bench_n):
            plan = make_power_plan(n)
            record = {
                "n": n,
                "k": plan.k,
                "m": plan.m,
                "naive_mults": plan.naive_mults,
                "fast_mults": plan.m,
                "naive_executed": n <= NAIVE_BENCH_LIMIT,
                "partitions_match": None,
            }
            if n <= NAIVE_BENCH_LIMIT:
                # Random geometric instance with expected degree of a few neighbors.
                ps = PointSet(rng.random((n, 2)))
                adjacency = build_adjacency(ps, ClusteringConfig(radius=1.2 / np.sqrt(n)))
                g_fast, _ = power_fast(adjacency)
                g_naive = power_naive_oracle(adjacency)
                record["partitions_match"] = bool(
                    mask_labels(g_fast) == mask_labels(g_naive) == cluster_labels(adjacency)
                )
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
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations surface here
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """Run ``main`` on the command line and end the process with its exit code.

    ``--help`` exits through argparse's ``SystemExit``, whose code is used.
    The process ends by ``os._exit`` once stdout and stderr, where they
    exist, are flushed, with no interpreter teardown (module docstring).
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse, after printing the help
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError as exc:  # a reader that closed the pipe, for one
        with suppress(OSError):
            print(f"error: can't flush output: {exc}", file=sys.stderr, flush=True)
        code = 1
    os._exit(code)
