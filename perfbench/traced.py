"""Run the radclust CLI in-process with its layer functions wrapped in spans.

Usage: ``python traced.py TRACE_JSON -- <radclust arguments>``

Every public function the CLI reaches (listed in ``LAYER_SPANS`` and
``PIPELINE_SPANS``) is replaced, in every radclust module that holds it, by a
wrapper that records a span: name, parent span, start and end.  Spans stay in
memory and are written to TRACE_JSON after ``radclust.cli.main`` returns,
together with exact counts computed outside every timed region:

* bytes read and written by ``radclust.io``;
* radius-graph edges, and the adjacency step's tracemalloc peak from a re-run;
* squarings planned, squarings until ``G.G == G`` (by ``bool_multiply``,
  counting the squaring that shows no change, capped at the plan) and the
  dense operations computed, 2 N**3 per executed squaring;
* clusters, frames and events.

``post_main_s`` is the time spent after ``main`` returned, so the caller can
take it off the traced process's wall time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

# Layer metric -> the spans it sums.
LAYER_SPANS = {
    "io.read_s": ("io.read_points_csv", "io.read_trajectory_csv"),
    "io.write_s": (
        "io.cluster_payload",
        "io.frames_payload",
        "io.events_payload",
        "io.write_json",
    ),
    "geometry.adjacency_s": ("geometry.build_adjacency",),
    "matpower.power_s": ("matpower.power_fast",),
    "clustering.labels_s": ("clustering.cluster_labels",),
    "clustering.table_s": ("clustering.build_cluster_table",),
    "trajectory.frames_s": ("trajectory.cluster_frames",),
    "trajectory.events_s": ("trajectory.detect_events",),
    "svgplot.render_s": ("svgplot.render_points_svg", "svgplot.render_frames_svg"),
}
# Spans that only group layer calls: the per-point-set pipeline.
PIPELINE_SPANS = ("clustering.cluster_pointset",)

# What each call leaves for the counts, taken from (args, result) after the
# span has ended.
_KEEP = {
    "io.read_points_csv": lambda args, out: args[0],
    "io.read_trajectory_csv": lambda args, out: args[0],
    "io.write_json": lambda args, out: args[1],
    "geometry.build_adjacency": lambda args, out: (args[0], args[1], out),
    "matpower.power_fast": lambda args, out: (args[0], out[1]),
    "clustering.cluster_labels": lambda args, out: out.n_clusters,
    "trajectory.cluster_frames": lambda args, out: len(args[0]),
    "trajectory.detect_events": lambda args, out: len(out),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.kept: dict[str, list] = {name: [] for name in _KEEP}
        self._open: list[int] = []

    def wrap(self, name, fn):
        keep = _KEEP.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else None, 0.0, 0.0]
            self.spans.append(span)
            self._open.append(index)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if keep is not None:
                self.kept[name].append(keep(args, out))
            return out

        return traced

    def counts(self, build_adjacency, make_power_plan, bool_multiply) -> dict:
        kept = self.kept
        reads = kept["io.read_points_csv"] + kept["io.read_trajectory_csv"]
        edges = peak = 0
        tracemalloc.start()
        for ps, cfg, adjacency in kept["geometry.build_adjacency"]:
            edges += (int(adjacency.bits.sum()) - adjacency.n) // 2
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            build_adjacency(ps, cfg)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
        planned = to_fixpoint = ops = 0
        for a, executed in kept["matpower.power_fast"]:
            m = make_power_plan(a.n).m
            g, steps = a, 0
            while steps < m:
                squared = bool_multiply(g, g)
                steps += 1
                if squared == g:
                    break
                g = squared
            planned += m
            to_fixpoint += steps
            ops += executed * 2 * a.n**3
        return {
            "io.bytes_read": sum(os.path.getsize(p) for p in reads),
            "io.bytes_written": sum(os.path.getsize(p) for p in kept["io.write_json"]),
            "geometry.edges": edges,
            "geometry.adjacency_peak_mb": peak / 2**20,
            "matpower.squarings_planned": planned,
            "matpower.squarings_to_fixpoint": to_fixpoint,
            "matpower.ops_computed": ops,
            "clustering.clusters": sum(kept["clustering.cluster_labels"]),
            "trajectory.frames": sum(kept["trajectory.cluster_frames"]),
            "trajectory.events": sum(kept["trajectory.detect_events"]),
        }


def _install(tracer: Tracer) -> None:
    """Replace each traced function wherever a radclust module refers to it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "radclust"]
    names = [n for spans in LAYER_SPANS.values() for n in spans] + list(PIPELINE_SPANS)
    for name in names:
        module, func = name.split(".")
        original = getattr(sys.modules[f"radclust.{module}"], func)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE_JSON -- <radclust arguments>", file=sys.stderr)
        return 1
    trace_path, cli_args = argv[0], argv[2:]

    import radclust.cli
    from radclust.geometry import build_adjacency
    from radclust.matpower import bool_multiply, make_power_plan

    tracer = Tracer()
    _install(tracer)
    code = radclust.cli.main(cli_args)
    after_main = time.perf_counter()
    trace = {
        "exit_code": code,
        "spans": tracer.spans,
        "counts": tracer.counts(build_adjacency, make_power_plan, bool_multiply)
        if code == 0
        else {},
    }
    trace["post_main_s"] = time.perf_counter() - after_main
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
