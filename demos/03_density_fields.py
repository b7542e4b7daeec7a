"""How field density shapes the cluster size distribution.

Scatter the same number of points uniformly in squares sized so that a disk
of the clustering radius contains 0.5, 2 and 8 points on average.  At low
density nearly everything is a singleton; at medium density chains and small
groups appear; at high density one giant cluster swallows most points.

Run from the repository root:

    python3 demos/03_density_fields.py

Writes one SVG per density level into demos/out/.
"""

import pathlib

from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig
from radclust.scenarios import DENSITY_PER_DISK, field_side, uniform_random_points
from radclust.svgplot import render_points_svg

OUT = pathlib.Path(__file__).parent / "out"
N = 300
RADIUS = 1.0
SEED = 7


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, per_disk in DENSITY_PER_DISK.items():
        side = field_side(N, RADIUS, per_disk)
        ps = uniform_random_points(N, side, seed=SEED)
        lv, table = cluster_pointset(ps, ClusteringConfig(radius=RADIUS))
        top = table.sizes_ranked[:3]
        print(
            f"{name:>6}: {per_disk:>3} points per disk, side {side:7.2f}"
            f" -> {lv.n_clusters:>3} clusters, top sizes {top}"
        )
        path = OUT / f"density_{name}.svg"
        path.write_text(render_points_svg(ps, lv, table), encoding="utf-8")
        print(f"        wrote {path}")


if __name__ == "__main__":
    main()
