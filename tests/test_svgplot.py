import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from radclust.clustering import cluster_pointset
from radclust.geometry import ClusteringConfig, PointSet
from radclust.svgplot import frame_svg_paths, render_frames_svg, render_points_svg
from radclust.trajectory import Frame, cluster_frames, synthetic_motorcade

_SVG_NS = "{http://www.w3.org/2000/svg}"


def _clustered(coords, radius):
    ps = PointSet(coords)
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=radius))
    return ps, lv, table


def test_svg_is_well_formed_with_one_circle_per_point():
    ps, lv, table = _clustered([[0.0, 0.0], [1.0, 0.0], [9.0, 3.0]], 1.5)
    doc = render_points_svg(ps, lv, table)
    root = ET.fromstring(doc)
    assert root.tag == f"{_SVG_NS}svg"
    circles = root.findall(f"{_SVG_NS}circle")
    assert len(circles) == 3
    # background rect first
    assert root[0].tag == f"{_SVG_NS}rect"
    assert root[0].get("fill") == "white"


def test_svg_colors_follow_cluster_rank():
    # sizes 3 > 2 > 1 -> red, green, blue in that order
    coords = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [50.0, 0.0], [51.0, 0.0], [99.0, 0.0]]
    ps, lv, table = _clustered(coords, 1.5)
    doc = render_points_svg(ps, lv, table)
    fills = re.findall(r'fill="(\w+)"', doc)
    assert fills[0] == "white"
    assert fills[1:] == ["red", "red", "red", "green", "green", "blue"]


def test_svg_output_is_deterministic():
    ps, lv, table = _clustered([[0.0, 0.0], [0.5, 0.5]], 1.0)
    assert render_points_svg(ps, lv, table) == render_points_svg(ps, lv, table)


def test_svg_rejects_non_planar_points():
    ps = PointSet([[0.0, 0.0, 0.0]])
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=1.0))
    with pytest.raises(ValueError, match="2-d"):
        render_points_svg(ps, lv, table)


def test_svg_collinear_points_keep_visible_height():
    ps, lv, table = _clustered([[float(i), 0.0] for i in range(7)], 1.5)
    doc = render_points_svg(ps, lv, table)
    height = float(ET.fromstring(doc).get("height"))
    assert height > 20.0  # margin borrows the x span; no sliver viewports


def test_frame_svgs_share_one_viewport(tmp_path):
    frames = synthetic_motorcade()[:4]
    results = cluster_frames(frames, ClusteringConfig(radius=15.0))
    out = tmp_path / "plots"
    paths = render_frames_svg(frames, results, str(out))
    assert [p.rsplit("/", 1)[-1] for p in paths] == [
        "frame_0000.svg",
        "frame_0001.svg",
        "frame_0002.svg",
        "frame_0003.svg",
    ]
    sizes = set()
    for p in paths:
        root = ET.parse(p).getroot()
        sizes.add((root.get("width"), root.get("height"), root.get("viewBox")))
    assert len(sizes) == 1  # same global bounding box for every frame


def test_frame_svg_paths_sort_in_time_order_past_ten_thousand_frames():
    paths = frame_svg_paths("d", 10001)
    assert sorted(paths) == paths
    assert paths[-1].endswith("frame_10000.svg") and paths[0].endswith("frame_00000.svg")
    assert frame_svg_paths("d", 10000)[-1].endswith("frame_9999.svg")


def test_frame_svgs_require_matching_lengths(tmp_path):
    frames = synthetic_motorcade()[:2]
    results = cluster_frames(frames, ClusteringConfig(radius=15.0))
    with pytest.raises(ValueError):
        render_frames_svg(frames, results[:1], str(tmp_path / "x"))


def test_frame_svgs_refuse_a_change_of_dimension_before_writing(tmp_path):
    frames = [Frame(0.0, PointSet([[0.0, 0.0], [1.0, 0.0]])), Frame(1.0, PointSet(np.zeros((2, 3))))]
    results = cluster_frames(frames, ClusteringConfig(radius=2.0))
    out = tmp_path / "plots"
    with pytest.raises(ValueError, match=r"^frame t=1\.0: 3 coordinates, the first frame has 2$"):
        render_frames_svg(frames, results, str(out))
    assert not out.exists()


def test_svg_refuses_fewer_labels_than_points():
    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    lv, table = cluster_pointset(PointSet([[0.0, 0.0], [1.0, 0.0]]), ClusteringConfig(radius=2.0))
    with pytest.raises(ValueError, match=r"^2 labels for 3 points$"):
        render_points_svg(ps, lv, table)


def test_frame_svgs_refuse_fewer_labels_than_points_before_writing(tmp_path):
    cfg = ClusteringConfig(radius=2.0)
    frames = [Frame(0.0, PointSet([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]))]
    results = [cluster_pointset(PointSet([[0.0, 0.0], [1.0, 0.0]]), cfg)]
    out = tmp_path / "plots"
    with pytest.raises(ValueError, match=r"^frame t=0\.0: 2 labels for 3 points$"):
        render_frames_svg(frames, results, str(out))
    assert not out.exists()
