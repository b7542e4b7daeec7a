"""Shape- and centroid-independent clustering on radius graphs.

Points are joined into a graph whose edges connect pairs closer than a radius
``r``; the graph's connected components are the clusters, labeled straight
from the adjacency matrix by hooking and pointer jumping.  The paper's
route, a covering matrix power by repeated boolean squaring read through row
masks, gives the same partition and stays as the reference.  No centroids,
no preset cluster count, no shape assumptions: a ring, a chain and a blob
are each one cluster as long as their points stay chained within ``r``.

Modules:

* ``geometry``   the ``PointSet`` container, radius-graph adjacency
* ``matpower``   boolean matrix powers by repeated squaring, plus oracles
* ``clustering`` component labels, mask labels, components oracle,
  size-ranked tables
* ``scenarios``  deterministic synthetic scene generators
* ``trajectory`` per-frame clustering and split/merge events
* ``svgplot``    deterministic SVG scatter plots
* ``io``         CSV/JSON formats and the lat/lon projection
* ``cli``        the ``radclust`` command-line tool
"""

from .clustering import (
    ClusterTable,
    LabelVector,
    build_cluster_table,
    cluster_color_names,
    cluster_labels,
    cluster_pointset,
    connected_components_oracle,
    mask_labels,
)
from .geometry import (
    ClusteringConfig,
    PointSet,
    build_adjacency,
)
from .io import (
    cluster_payload,
    events_payload,
    frames_payload,
    project_equirect,
    read_points_csv,
    read_trajectory_csv,
    write_json,
    write_points_csv,
    write_trajectory_csv,
)
from .matpower import (
    BinaryMatrix,
    PowerPlan,
    bool_multiply,
    make_power_plan,
    power_fast,
    power_naive_oracle,
)
from .scenarios import (
    DENSITY_PER_DISK,
    SCENARIO_KINDS,
    ScenarioSpec,
    blob_points,
    chain_points,
    dense_core_with_scatter_points,
    field_side,
    forked_branch_points,
    generate,
    ring_points,
    shape_showcase,
    thick_chain_points,
    uniform_random_points,
)
from .svgplot import render_frames_svg, render_points_svg
from .trajectory import (
    MOTORCADE_RADIUS,
    ClusterEvent,
    Frame,
    cluster_frames,
    detect_events,
    synthetic_motorcade,
    validate_frames,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "ClusterEvent",
    "ClusterTable",
    "ClusteringConfig",
    "DENSITY_PER_DISK",
    "Frame",
    "LabelVector",
    "MOTORCADE_RADIUS",
    "PointSet",
    "PowerPlan",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "blob_points",
    "bool_multiply",
    "build_adjacency",
    "build_cluster_table",
    "chain_points",
    "cluster_color_names",
    "cluster_frames",
    "cluster_labels",
    "cluster_payload",
    "cluster_pointset",
    "connected_components_oracle",
    "dense_core_with_scatter_points",
    "detect_events",
    "events_payload",
    "field_side",
    "forked_branch_points",
    "frames_payload",
    "generate",
    "make_power_plan",
    "mask_labels",
    "power_fast",
    "power_naive_oracle",
    "project_equirect",
    "read_points_csv",
    "read_trajectory_csv",
    "render_frames_svg",
    "render_points_svg",
    "ring_points",
    "shape_showcase",
    "synthetic_motorcade",
    "thick_chain_points",
    "uniform_random_points",
    "validate_frames",
    "write_json",
    "write_points_csv",
    "write_trajectory_csv",
]
