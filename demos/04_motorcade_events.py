"""Tracking a convoy that breaks apart and regroups.

Seven cars drive in a staggered column; mid-run the rear pair falls behind
until it forms its own cluster, then catches up.  Each frame is clustered
independently and events are read off the membership overlap between
consecutive frames: one split when the rear pair detaches, one merge when
it rejoins.

Run from the repository root:

    python3 demos/04_motorcade_events.py

Writes the trajectory CSV, the per-frame cluster JSON, the events JSON and
a handful of frame SVGs into demos/out/.
"""

import pathlib

from radclust.geometry import ClusteringConfig
from radclust.io import events_payload, frames_payload, write_json, write_trajectory_csv
from radclust.svgplot import render_points_svg
from radclust.trajectory import (
    MOTORCADE_RADIUS,
    cluster_frames,
    detect_events,
    synthetic_motorcade,
)

OUT = pathlib.Path(__file__).parent / "out"
SNAPSHOT_TIMES = (0.0, 35.0, 80.0, 139.0, 160.0)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    frames = synthetic_motorcade()
    cfg = ClusteringConfig(radius=MOTORCADE_RADIUS)
    results = cluster_frames(frames, cfg)
    events = detect_events(results, frames)

    counts = [lv.n_clusters for lv, _ in results]
    print(f"{len(frames)} frames, radius {MOTORCADE_RADIUS} m")
    print(f"cluster count over time: starts {counts[0]}, peaks {max(counts)}")
    for event in events:
        print(
            f"  t={event.t:>5}: {event.kind:<5} parents={event.parents}"
            f" children={event.children} members={event.member_ids}"
        )

    write_trajectory_csv(frames, str(OUT / "motorcade.csv"))
    write_json(frames_payload(cfg.radius, frames, results), str(OUT / "motorcade_frames.json"))
    write_json(events_payload(events), str(OUT / "motorcade_events.json"))

    # a few snapshots around the interesting moments
    for idx, frame in enumerate(frames):
        if frame.t in SNAPSHOT_TIMES:
            lv, table = results[idx]
            path = OUT / f"motorcade_t{int(frame.t):03d}.svg"
            path.write_text(render_points_svg(frame.points, lv, table), encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
