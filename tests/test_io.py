import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radclust.clustering import build_cluster_table, cluster_pointset
from radclust.geometry import ClusteringConfig, PointSet
from radclust.io import (
    EARTH_RADIUS_M,
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
from radclust.trajectory import ClusterEvent, Frame, cluster_frames, synthetic_motorcade


# ---------------------------------------------------------------------------
# Point CSV
# ---------------------------------------------------------------------------


def test_points_csv_round_trip(tmp_path):
    ps = PointSet([[0.0, 1.5], [2.25, -3.0], [0.1, 0.2]])
    path = str(tmp_path / "pts.csv")
    write_points_csv(ps, path)
    back = read_points_csv(path)
    assert back.ids == (0, 1, 2)
    assert np.array_equal(back.coords, ps.coords)


def test_points_csv_round_trip_string_ids_and_3d(tmp_path):
    ps = PointSet([(0.0, 0.0, 1.0), (1.0, 2.0, 3.0)], ["alpha", "beta"])
    path = str(tmp_path / "pts.csv")
    write_points_csv(ps, path)
    back = read_points_csv(path)
    assert back.ids == ("alpha", "beta")
    assert back.dimension == 3
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "id,x,y,z"


def test_csv_writers_quote_ids_that_need_it(tmp_path):
    ids = ("a,b", "x\ny", 'say "hi"', "plain")
    coords = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    ps = PointSet(coords, ids)
    points_path = str(tmp_path / "pts.csv")
    write_points_csv(ps, points_path)
    assert read_points_csv(points_path).ids == ids
    frames = [Frame(t=t, points=PointSet(coords, ids)) for t in (0.0, 1.0)]
    traj_path = str(tmp_path / "traj.csv")
    write_trajectory_csv(frames, traj_path)
    assert [f.points.ids for f in read_trajectory_csv(traj_path)] == [ids, ids]
    with open(points_path, encoding="utf-8", newline="") as fh:
        assert fh.read().endswith("\nplain,3.0,3.0\n")


def test_csv_writers_quote_an_id_holding_a_carriage_return(tmp_path):
    ids = ("a\rb", "c")
    coords = [[0.0, 0.0], [1.0, 1.0]]
    points_path = str(tmp_path / "pts.csv")
    write_points_csv(PointSet(coords, ids), points_path)
    assert read_points_csv(points_path).ids == ids
    with open(points_path, encoding="utf-8", newline="") as fh:
        assert fh.read() == 'id,x,y\n"a\rb",0.0,0.0\nc,1.0,1.0\n'
    frames = [Frame(t=t, points=PointSet(coords, ids)) for t in (0.0, 1.0)]
    traj_path = str(tmp_path / "traj.csv")
    write_trajectory_csv(frames, traj_path)
    assert [f.points.ids for f in read_trajectory_csv(traj_path)] == [ids, ids]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(
        st.text(
            # Lone surrogates (Cs) have no UTF-8 form, so no file holds them.
            st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
            max_size=6,
        ),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_points_csv_matches_csv_writer_for_ids_without_carriage_returns(
    tmp_path_factory, ids
):
    # csv.writer with an LF terminator is the reference wherever it is right.
    coords = np.arange(2.0 * len(ids)).reshape(-1, 2) / 3
    path = tmp_path_factory.getbasetemp() / "writer_reference.csv"
    path.unlink(missing_ok=True)
    # The reader strips ids and turns an all-canonical-integer column into
    # ints, so such ids would not read back: the writer refuses them.
    if any(i != i.strip() for i in ids) or all(
        re.fullmatch(r"-?[1-9][0-9]*|0", i) for i in ids
    ):
        with pytest.raises(ValueError, match="would read back as"):
            write_points_csv(PointSet(coords, ids), str(path))
        assert not path.exists()
        return
    write_points_csv(PointSet(coords, ids), str(path))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["id", "x", "y"])
    for node_id, row in zip(ids, coords):
        writer.writerow([node_id, *(repr(float(v)) for v in row)])
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == expected.getvalue()


@pytest.mark.parametrize(
    "ids, message",
    [
        ([" b"], r"id ' b' would read back as 'b'"),
        ([1, "x"], r"id 1 would read back as '1'"),
        ([" a", "a"], r"id ' a' would read back as 'a'"),
        ([1, "1"], r"id '1' would read back as 1"),
    ],
    ids=["stripped", "int-beside-string", "duplicate-after-strip", "duplicate-as-text"],
)
def test_csv_writers_refuse_ids_that_would_not_read_back(tmp_path, ids, message):
    coords = [[float(k), 0.0] for k in range(len(ids))]
    points_path = tmp_path / "pts.csv"
    with pytest.raises(ValueError, match=message):
        write_points_csv(PointSet(coords, ids), str(points_path))
    assert not points_path.exists()
    frames = [Frame(t=t, points=PointSet(coords, ids)) for t in (0.0, 1.0)]
    traj_path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=message):
        write_trajectory_csv(frames, str(traj_path))
    assert not traj_path.exists()


def test_points_csv_int_ids_stay_ints(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n7,0.0,0.0\n3,1.0,1.0\n")
    assert read_points_csv(str(path)).ids == (7, 3)


def test_points_csv_mixed_ids_become_strings(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n7,0.0,0.0\na,1.0,1.0\n")
    assert read_points_csv(str(path)).ids == ("7", "a")


def test_points_csv_canonical_int_ids_stay_ints(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,0.0,0.0\n-3,1.0,1.0\n10,2.0,2.0\n")
    assert read_points_csv(str(path)).ids == (0, -3, 10)


@pytest.mark.parametrize("other", ["01", "+1", "\u0661"])
def test_points_csv_ids_equal_as_integers_stay_distinct(tmp_path, other):
    # int() maps each of these to 1 as well; they must stay separate ids.
    path = tmp_path / "pts.csv"
    path.write_text(f"id,x,y\n1,0.0,0.0\n{other},1.0,1.0\n", encoding="utf-8")
    assert read_points_csv(str(path)).ids == ("1", other)


@pytest.mark.parametrize("token", ["-0", "00", "007"])
def test_points_csv_non_canonical_int_ids_stay_strings(tmp_path, token):
    path = tmp_path / "pts.csv"
    path.write_text(f"id,x,y\n{token},0.0,0.0\n5,1.0,1.0\n")
    assert read_points_csv(str(path)).ids == (token, "5")


def test_points_csv_bad_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("node,x,y\n0,0.0,0.0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_points_csv(str(path))


def test_points_csv_accepts_utf8_bom(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"\xef\xbb\xbfid,x,y\na,0,0\nb,1,0\n")
    ps = read_points_csv(str(path))
    assert ps.ids == ("a", "b")
    assert np.array_equal(ps.coords, [[0.0, 0.0], [1.0, 0.0]])


def test_points_csv_field_count_error_names_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,0.0,0.0\n1,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_points_csv(str(path))


def test_points_csv_bad_coordinate_names_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,0.0,0.0\n1,oops,2.0\n")
    with pytest.raises(ValueError, match="line 3.*'oops'"):
        read_points_csv(str(path))


def test_points_csv_error_names_the_physical_line_after_a_quoted_line_break(tmp_path):
    # The second record spans lines 2 and 3, so the third starts on line 4.
    path = tmp_path / "pts.csv"
    path.write_bytes(b'id,x,y\n"x\ny",0,0\nb,oops,1\n')
    with pytest.raises(ValueError, match="line 4: invalid coordinate 'oops'"):
        read_points_csv(str(path))



def test_points_csv_field_over_the_csv_size_limit_names_the_line(tmp_path):
    # The limit is the csv module's, process-wide; the reader leaves it as is.
    path = tmp_path / "pts.csv"
    long_id = "a" * (csv.field_size_limit() + 1)
    path.write_text(f"id,x,y\n0,0.0,0.0\n{long_id},1.0,1.0\n")
    with pytest.raises(ValueError, match=r"pts\.csv: line 3: field larger than field limit"):
        read_points_csv(str(path))


def test_points_csv_bytes_that_are_not_utf8_name_the_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"id,x,y\n0,0,0\n\xff\xfe,1,1\n")
    with pytest.raises(ValueError, match=r"pts\.csv: line 3: can't decode byte 0xff as UTF-8: invalid start byte$"):
        read_points_csv(str(path))


def test_points_csv_bytes_that_are_not_utf8_name_the_line_past_the_first_chunk(tmp_path):
    # The text decoder reads ahead by chunks; the line is the file's, not the chunk's.
    path = tmp_path / "pts.csv"
    rows = b"".join(b"%d,0.5,0.25\n" % k for k in range(5000))
    path.write_bytes(b"id,x,y\n" + rows + b"x\xe9,1,1\n")
    with pytest.raises(ValueError, match=r"pts\.csv: line 5002: can't decode byte 0xe9 as UTF-8: invalid continuation byte$"):
        read_points_csv(str(path))


def test_points_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,inf,0.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_points_csv(str(path))


def test_points_csv_rejects_duplicate_ids_with_path(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,0.0,0.0\n0,1.0,1.0\n")
    with pytest.raises(ValueError, match="pts.csv"):
        read_points_csv(str(path))


def test_points_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_points_csv(str(empty))
    header_only = tmp_path / "h.csv"
    header_only.write_text("id,x,y\n")
    with pytest.raises(ValueError, match="no data"):
        read_points_csv(str(header_only))


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    frames = synthetic_motorcade()[:10]
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(frames, path)
    back = read_trajectory_csv(path)
    assert len(back) == 10
    for orig, loaded in zip(frames, back):
        assert loaded.t == orig.t
        assert loaded.points.ids == orig.points.ids
        assert np.array_equal(loaded.points.coords, orig.points.coords)



def _frame(t, rows, ids=None):
    return Frame(t=t, points=PointSet(rows, ids))


@pytest.mark.parametrize(
    "frames, message",
    [
        (
            [_frame(1.0, [[0.0, 0.0]]), _frame(0.0, [[0.0, 0.0]])],
            r"t=0\.0: timestamps must be non-decreasing",
        ),
        (
            [_frame(0.0, [[0.0, 0.0]], ids=[0]), _frame(1.0, [[0.0, 0.0]], ids=[1])],
            r"t=1\.0: node ids do not match the first frame",
        ),
        (
            [_frame(0.0, [[0.0, 0.0]]), _frame(0.0, [[5.0, 0.0]])],
            r"t=0\.0: equal consecutive timestamps",
        ),
        ([_frame(math.inf, [[0.0, 0.0]])], r"t=inf: timestamps must be finite"),
        (
            [_frame(0.0, [[0.0, 0.0]]), _frame(1.0, [[0.0, 0.0, 0.0]])],
            r"t=1\.0: 3 coordinates, the first frame has 2",
        ),
    ],
    ids=["decreasing-t", "changed-ids", "equal-t", "non-finite-t", "mixed-dimension"],
)
def test_trajectory_csv_writer_refuses_frames_that_would_not_read_back(
    tmp_path, frames, message
):
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=message):
        write_trajectory_csv(frames, str(path))
    assert not path.exists()


def test_trajectory_csv_groups_consecutive_rows(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text(
        "t,id,x,y\n"
        "0,0,0.0,0.0\n"
        "0,1,1.0,0.0\n"
        "2.5,0,0.5,0.0\n"
        "2.5,1,1.5,0.0\n"
    )
    frames = read_trajectory_csv(str(path))
    assert [f.t for f in frames] == [0.0, 2.5]
    assert frames[1].points.ids == (0, 1)


def test_trajectory_csv_ids_equal_as_integers_stay_distinct(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,id,x,y\n0,1,0.0,0.0\n0,01,5.0,0.0\n1,1,0.5,0.0\n1,01,5.5,0.0\n")
    frames = read_trajectory_csv(str(path))
    assert [f.points.ids for f in frames] == [("1", "01"), ("1", "01")]


def test_trajectory_csv_canonical_int_ids_stay_ints(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,id,x,y\n0,-2,0.0,0.0\n0,0,5.0,0.0\n")
    assert read_trajectory_csv(str(path))[0].points.ids == (-2, 0)


def test_trajectory_csv_accepts_utf8_bom(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"\xef\xbb\xbft,id,x,y\n0,0,0.0,0.0\n1,0,0.5,0.0\n")
    frames = read_trajectory_csv(str(path))
    assert [f.t for f in frames] == [0.0, 1.0]
    assert frames[1].points.ids == (0,)


def test_trajectory_csv_bytes_that_are_not_utf8_name_the_line(tmp_path):
    # Lines end at \r\n, \r or \n; a byte-order mark is not a line.
    path = tmp_path / "traj.csv"
    path.write_bytes(b"\xef\xbb\xbft,id,x,y\r\n0,0,0,0\r\n0,1,1,1\r1,0,0,\xc3\n")
    with pytest.raises(ValueError, match=r"traj\.csv: line 4: can't decode byte 0xc3 as UTF-8: invalid continuation byte$"):
        read_trajectory_csv(str(path))


def test_trajectory_csv_rejects_decreasing_t(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,id,x,y\n1,0,0.0,0.0\n0,0,0.0,0.0\n")
    with pytest.raises(ValueError, match="line 3.*decreases"):
        read_trajectory_csv(str(path))


def test_trajectory_csv_reports_decreasing_t_before_a_bad_coordinate(tmp_path):
    # Within a line the timestamp order is checked before the coordinates.
    path = tmp_path / "traj.csv"
    path.write_text("t,id,x,y\n1,0,0.0,0.0\n0,0,oops,0.0\n")
    with pytest.raises(ValueError, match=r"line 3: timestamp 0\.0 decreases"):
        read_trajectory_csv(str(path))


def test_trajectory_csv_rejects_inconsistent_frame_ids(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,id,x,y\n0,0,0.0,0.0\n0,0,1.0,0.0\n")
    with pytest.raises(ValueError, match=r"frame t=0\.0"):
        read_trajectory_csv(str(path))


def test_trajectory_csv_bad_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("id,t,x\n0,0,0.0\n")
    with pytest.raises(ValueError, match="header must be t,id"):
        read_trajectory_csv(str(path))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_equirect_projection_scales_longitude_by_latitude():
    frame = Frame(
        t=0.0,
        points=PointSet([(45.0, 0.0), (45.0, 0.001)]),
    )
    (projected,) = project_equirect([frame])
    dx = projected.points.coords[1, 0] - projected.points.coords[0, 0]
    dy = projected.points.coords[1, 1] - projected.points.coords[0, 1]
    expected = EARTH_RADIUS_M * math.radians(0.001) * math.cos(math.radians(45.0))
    assert dx == pytest.approx(expected, rel=1e-9)
    assert dy == pytest.approx(0.0, abs=1e-9)


def test_equirect_projection_centers_on_first_frame():
    frames = [
        Frame(t=0.0, points=PointSet([(10.0, 20.0), (10.002, 20.0)])),
        Frame(t=1.0, points=PointSet([(10.0, 20.0), (10.002, 20.0)])),
    ]
    projected = project_equirect(frames)
    centroid0 = projected[0].points.coords.mean(axis=0)
    assert np.allclose(centroid0, [0.0, 0.0], atol=1e-9)
    # meters scale: 0.002 deg of latitude is ~222 m
    dy = projected[0].points.coords[1, 1] - projected[0].points.coords[0, 1]
    assert dy == pytest.approx(EARTH_RADIUS_M * math.radians(0.002), rel=1e-9)



def test_equirect_projection_keeps_a_pair_across_the_antimeridian_together():
    # 0.1 degrees of longitude apart across +-180: about 10.6 km, not 38,000.
    frame = Frame(t=0.0, points=PointSet([(-17.0, 179.95), (-17.0, -179.95)]))
    (projected,) = project_equirect([frame])
    gap = np.hypot(*(projected.points.coords[1] - projected.points.coords[0]))
    expected = EARTH_RADIUS_M * math.radians(0.1) * math.cos(math.radians(17.0))
    assert gap == pytest.approx(expected, rel=1e-9)
    lv, _ = cluster_pointset(projected.points, ClusteringConfig(radius=50000.0))
    assert lv.n_clusters == 1


def test_equirect_refuses_a_latitude_outside_the_poles():
    frames = [
        Frame(t=0.0, points=PointSet([(89.0, 0.0), (-90.0, 0.0)], ids=["a", "b"])),
        Frame(t=1.0, points=PointSet([(89.0, 0.0), (-90.5, 0.0)], ids=["a", "b"])),
    ]
    with pytest.raises(ValueError, match=r"frame t=1\.0: point 'b': latitude -90\.5"):
        project_equirect(frames)
    # Longitudes stay unrestricted: 0-360 data relies on the +-360 shift.
    (projected,) = project_equirect([Frame(t=0.0, points=PointSet([(90.0, 359.0)]))])
    assert np.isfinite(projected.points.coords).all()


def test_equirect_requires_two_columns():
    frame = Frame(t=0.0, points=PointSet([(1.0, 2.0, 3.0)]))
    with pytest.raises(ValueError, match="2 coordinate columns"):
        project_equirect([frame])


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def test_cluster_payload_schema_and_key_order():
    ps = PointSet([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=1.5))
    payload = cluster_payload(1.5, lv, table)
    assert list(payload) == ["radius", "n", "labels", "clusters"]
    assert payload["radius"] == 1.5
    assert payload["n"] == 3
    assert payload["labels"] == [1, 1, 2]
    assert payload["clusters"] == [
        {"label": 1, "size": 2, "rank": 1, "color": "red"},
        {"label": 2, "size": 1, "rank": 2, "color": "green"},
    ]
    for record in payload["clusters"]:
        assert list(record) == ["label", "size", "rank", "color"]


def test_frames_payload_structure():
    frames = synthetic_motorcade()[:3]
    results = cluster_frames(frames, ClusteringConfig(radius=15.0))
    payload = frames_payload(15.0, frames, results)
    assert list(payload) == ["radius", "n_frames", "frames"]
    assert payload["n_frames"] == 3
    first = payload["frames"][0]
    assert list(first) == ["t", "ids", "labels", "clusters"]
    assert first["ids"] == [0, 1, 2, 3, 4, 5, 6]
    assert first["labels"] == [1] * 7



def test_frames_payload_refuses_fewer_results_than_frames():
    frames = synthetic_motorcade()[:2]
    results = cluster_frames(frames[:1], ClusteringConfig(radius=15.0))
    with pytest.raises(ValueError, match="zip"):
        frames_payload(15.0, frames, results)


def test_events_payload_records():
    events = [
        ClusterEvent(t=3.0, kind="split", parents=(1,), children=(1, 2), member_ids=(0, 1))
    ]
    payload = events_payload(events)
    assert payload == [
        {
            "t": 3.0,
            "kind": "split",
            "parents": [1],
            "children": [1, 2],
            "member_ids": [0, 1],
        }
    ]


def test_write_json_format(tmp_path):
    path = str(tmp_path / "out.json")
    write_json({"b": 1, "a": [1, 2]}, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"}\n")
    assert b"\r" not in raw
    assert json.loads(raw) == {"b": 1, "a": [1, 2]}
    # keys keep insertion order (stable output for byte-identical runs)
    assert raw.index(b'"b"') < raw.index(b'"a"')


def test_build_cluster_table_payload_consistency():
    # color strings in the payload follow the ranking, not the label number
    ps = PointSet(
        [[0.0, 0.0], [20.0, 0.0], [20.0, 1.0], [20.0, 2.0], [40.0, 0.0], [40.0, 1.0]]
    )
    lv, table = cluster_pointset(ps, ClusteringConfig(radius=1.5))
    payload = cluster_payload(1.5, lv, build_cluster_table(lv))
    by_rank = {rec["rank"]: rec for rec in payload["clusters"]}
    assert by_rank[1]["color"] == "red" and by_rank[1]["size"] == 3
    assert by_rank[2]["color"] == "green" and by_rank[2]["size"] == 2
    assert by_rank[3]["color"] == "blue" and by_rank[3]["size"] == 1
    del table
