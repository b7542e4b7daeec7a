"""A gallery of differently shaped groups, clustered in one pass.

The scene mixes a jittered crowd, a single-file chain, a thick chain, a
forked branch, a small ring, a three-node chain and one loner -- all built
so that consecutive points sit closer than the clustering radius while the
groups themselves stay far apart.  Connectivity is the only thing the
pipeline looks at, so every group comes out as one cluster regardless of
its shape, and the ranking orders them purely by size.

Run from the repository root:

    python3 demos/01_shape_gallery.py

Outputs land in demos/out/: a colored SVG scatter plot (rank 1 red, rank 2
green, rank 3 blue) and the labels JSON.
"""

import pathlib

from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig
from radclust.io import cluster_payload, write_json
from radclust.scenarios import shape_showcase
from radclust.svgplot import render_points_svg

OUT = pathlib.Path(__file__).parent / "out"
RADIUS = 1.0


def main() -> None:
    OUT.mkdir(exist_ok=True)
    scene = shape_showcase(radius=RADIUS, seed=0)
    lv, table = cluster_pointset(scene, ClusteringConfig(radius=RADIUS))

    print(f"{len(scene)} points, radius {RADIUS} -> {lv.n_clusters} clusters")
    print(f"{'rank':>4}  {'label':>5}  {'size':>4}")
    for rank, label in enumerate(table.ranking, start=1):
        print(f"{rank:>4}  {label:>5}  {table.frequencies[label]:>4}")

    svg_path = OUT / "shape_gallery.svg"
    svg_path.write_text(render_points_svg(scene, lv, table), encoding="utf-8")
    write_json(cluster_payload(RADIUS, lv, table), str(OUT / "shape_gallery.json"))
    print(f"\nwrote {svg_path}")
    print(f"wrote {OUT / 'shape_gallery.json'}")


if __name__ == "__main__":
    main()
