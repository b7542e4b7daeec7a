import csv
import hashlib
import json
import math
import os

import pytest

import radclust.geometry as geometry
import radclust.scenarios as scenarios
from radclust.cli import main
from radclust.geometry import PointSet
from radclust.io import write_trajectory_csv
from radclust.trajectory import Frame, synthetic_motorcade


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write_chain_csv(path, n=7, spacing=1.0):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,x,y\n")
        for i in range(n):
            fh.write(f"{i},{i * spacing},0.0\n")


@pytest.fixture
def motorcade_csv(tmp_path):
    path = str(tmp_path / "motorcade.csv")
    write_trajectory_csv(synthetic_motorcade(), path)
    return path


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def test_cluster_chain(tmp_path):
    inp = str(tmp_path / "chain.csv")
    out = str(tmp_path / "labels.json")
    _write_chain_csv(inp)
    assert main(["cluster", "--input", inp, "--radius", "1.5", "--out", out]) == 0
    payload = _read_json(out)
    assert payload == {
        "radius": 1.5,
        "n": 7,
        "labels": [1, 1, 1, 1, 1, 1, 1],
        "clusters": [{"label": 1, "size": 7, "rank": 1, "color": "red"}],
    }


def test_cluster_single_point(tmp_path):
    inp = tmp_path / "one.csv"
    inp.write_text("id,x,y\n42,3.0,4.0\n")
    out = str(tmp_path / "labels.json")
    assert main(["cluster", "--input", str(inp), "--radius", "1.0", "--out", out]) == 0
    payload = _read_json(out)
    assert payload["n"] == 1
    assert payload["labels"] == [1]
    assert payload["clusters"][0]["size"] == 1


def test_cluster_writes_svg(tmp_path):
    inp = str(tmp_path / "chain.csv")
    out = str(tmp_path / "labels.json")
    svg = str(tmp_path / "plot.svg")
    _write_chain_csv(inp)
    assert (
        main(["cluster", "--input", inp, "--radius", "1.5", "--out", out, "--svg", svg])
        == 0
    )
    text = _read_bytes(svg).decode("utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<circle") == 7
    assert 'fill="red"' in text
    assert text.rstrip().endswith("</svg>")


def test_cluster_dense_core_rank_one_holds_core_rows(tmp_path):
    gen_out = str(tmp_path / "scene.csv")
    assert (
        main(
            [
                "generate",
                "--kind",
                "dense-core-with-scatter",
                "--param",
                "n_core=40",
                "--param",
                "n_scatter=20",
                "--param",
                "core_radius=0.45",
                "--param",
                "scatter_inner=2.0",
                "--param",
                "scatter_outer=12.0",
                "--seed",
                "11",
                "--out",
                gen_out,
            ]
        )
        == 0
    )
    out = str(tmp_path / "labels.json")
    assert main(["cluster", "--input", gen_out, "--radius", "1.0", "--out", out]) == 0
    payload = _read_json(out)
    top = payload["clusters"][0]
    assert top["rank"] == 1 and top["color"] == "red"
    assert top["size"] >= 40
    core_labels = set(payload["labels"][:40])
    assert core_labels == {top["label"]}


def test_cluster_missing_input(tmp_path, capsys):
    out = str(tmp_path / "labels.json")
    code = main(["cluster", "--input", str(tmp_path / "nope.csv"), "--radius", "1", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not os.path.exists(out)


def test_cluster_rejects_bad_radius(tmp_path, capsys):
    inp = str(tmp_path / "chain.csv")
    _write_chain_csv(inp)
    code = main(["cluster", "--input", inp, "--radius", "0", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, radius",
    [("a,0,0\nb,2e-200,0\n", "1e-200"), ("a,0,0\nb,1e200,0\nc,2e200,0\n", "1.5e200")],
    ids=["underflow", "overflow"],
)
def test_cluster_rejects_radius_outside_safe_range(tmp_path, capsys, rows, radius):
    inp = tmp_path / "pts.csv"
    inp.write_text("id,x,y\n" + rows)
    code = main(["cluster", "--input", str(inp), "--radius", radius, "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "safe range" in capsys.readouterr().err


@pytest.mark.parametrize("coord", ["2e-200", "1e200"])
def test_cluster_rejects_coordinates_outside_safe_range(tmp_path, capsys, coord):
    inp = tmp_path / "pts.csv"
    inp.write_text(f"id,x,y\na,0,0\nb,{coord},0\n")
    code = main(["cluster", "--input", str(inp), "--radius", "1", "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{inp}: point 'b': coordinate {float(coord)!r}" in err
    assert "safe magnitude range" in err


def test_cluster_reports_csv_line_numbers(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("id,x,y\n0,0.0,0.0\n1,oops,1.0\n")
    code = main(["cluster", "--input", str(inp), "--radius", "1", "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_cluster_field_over_the_csv_size_limit_exits_one(tmp_path, capsys):
    inp = tmp_path / "big.csv"
    inp.write_text(f"id,x,y\n0,0.0,0.0\n{'a' * (csv.field_size_limit() + 1)},1.0,1.0\n")
    out = tmp_path / "o.json"
    code = main(["cluster", "--input", str(inp), "--radius", "1", "--out", str(out)])
    assert code == 1
    assert f"error: {inp}: line 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_svg_of_3d_points_writes_nothing(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    inp.write_text("id,x,y,z\n0,0.0,0.0,0.0\n1,1.0,0.0,0.0\n")
    out = tmp_path / "labels.json"
    svg = tmp_path / "plot.svg"
    code = main(
        ["cluster", "--input", str(inp), "--radius", "1.5", "--out", str(out), "--svg", str(svg)]
    )
    assert code == 1
    assert "--svg needs 2-d points, got d=3" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()


def test_cluster_unwritable_svg_leaves_no_labels(tmp_path, capsys):
    inp = str(tmp_path / "chain.csv")
    _write_chain_csv(inp)
    out = tmp_path / "labels.json"
    svg = tmp_path / "nodir" / "plot.svg"
    code = main(["cluster", "--input", inp, "--radius", "1.5", "--out", str(out), "--svg", str(svg)])
    assert code == 1
    assert "nodir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.csv"]


def test_cluster_unwritable_svg_keeps_a_labels_file_it_did_not_create(tmp_path):
    inp = str(tmp_path / "chain.csv")
    _write_chain_csv(inp)
    out = tmp_path / "labels.json"
    out.write_text("old")
    svg = tmp_path / "nodir" / "plot.svg"
    code = main(["cluster", "--input", inp, "--radius", "1.5", "--out", str(out), "--svg", str(svg)])
    assert code == 1
    assert out.exists()


def test_cluster_beyond_physical_memory_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 7 * 7 - 1)
    inp = str(tmp_path / "chain.csv")
    _write_chain_csv(inp)
    out = tmp_path / "labels.json"
    svg = tmp_path / "plot.svg"
    code = main(["cluster", "--input", inp, "--radius", "1.5", "--out", str(out), "--svg", str(svg)])
    assert code == 1
    assert "7 points need 49 bytes" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.csv"]


@pytest.mark.parametrize(
    "command,outputs",
    [
        ("cluster", ["--out", "same.out", "--svg", "same.out"]),
        ("cluster", ["--out", "same.out", "--svg", "./same.out"]),
        ("trajectory", ["--out", "same.out", "--svg", "same.out"]),
        ("trajectory", ["--out", "fr.json", "--events", "same.out", "--svg", "same.out"]),
    ],
)
def test_outputs_naming_one_file_are_refused(
    tmp_path, monkeypatch, capsys, motorcade_csv, command, outputs
):
    monkeypatch.chdir(tmp_path)
    _write_chain_csv("chain.csv")
    inp = "chain.csv" if command == "cluster" else motorcade_csv
    assert main([command, "--input", inp, "--radius", "15", *outputs]) == 1
    assert "same file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.csv", "motorcade.csv"]


@pytest.mark.parametrize("command", ["cluster", "trajectory"])
def test_output_naming_the_input_is_refused(tmp_path, capsys, motorcade_csv, command):
    inp = str(tmp_path / "chain.csv") if command == "cluster" else motorcade_csv
    if command == "cluster":
        _write_chain_csv(inp)
    before = _read_bytes(inp)
    code = main([command, "--input", inp, "--radius", "15", "--out", inp])
    assert code == 1
    assert "--input and --out name the same file" in capsys.readouterr().err
    assert _read_bytes(inp) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {"motorcade.csv", os.path.basename(inp)}
    )


@pytest.mark.parametrize("flag", ["--out", "--events"])
def test_trajectory_output_naming_a_frame_svg_is_refused(tmp_path, capsys, motorcade_csv, flag):
    # The 161 motorcade frames are plotted to frame_0000.svg .. frame_0160.svg.
    outputs = {"--out": str(tmp_path / "frames.json"), "--events": str(tmp_path / "ev.json")}
    outputs[flag] = str(tmp_path / "plots" / "frame_0160.svg")
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", outputs["--out"], "--events", outputs["--events"],
            "--svg", str(tmp_path / "plots"),
        ]
    )
    assert code == 1
    assert f"{flag} and --svg name the same file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["motorcade.csv"]


def test_cluster_accepts_ids_equal_as_integers(tmp_path):
    # "1" and "01" are different ids; they used to collapse into one.
    inp = tmp_path / "pts.csv"
    inp.write_text("id,x,y\n1,0,0\n01,5,0\n")
    out = str(tmp_path / "labels.json")
    assert main(["cluster", "--input", str(inp), "--radius", "1", "--out", out]) == 0
    assert _read_json(out)["labels"] == [1, 2]


def test_usage_error_exits_one(tmp_path, capsys):
    assert main(["cluster", "--radius", "1"]) == 1  # --input/--out missing
    assert "error:" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_chain_csv(tmp_path):
    out = str(tmp_path / "chain.csv")
    code = main(
        ["generate", "--kind", "chain", "--param", "n=3", "--param", "spacing=1.35", "--out", out]
    )
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "id,x,y"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_generate_outside_safe_range_writes_nothing(tmp_path, capsys):
    # 1e-200 apart is below SCALE_MIN: such a file could not be clustered.
    out = tmp_path / "chain.csv"
    code = main(
        ["generate", "--kind", "chain", "--param", "n=3", "--param", "spacing=1e-200", "--out", str(out)]
    )
    assert code == 1
    assert "point 1: coordinate 1e-200" in capsys.readouterr().err
    assert not out.exists()


def test_generate_infinite_count_exits_one(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    code = main(
        ["generate", "--kind", "chain", "--param", "n=1e400", "--param", "spacing=1", "--out", str(out)]
    )
    assert code == 1
    assert "error: n must be a positive integer, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_generate_out_of_memory_exits_one(tmp_path, monkeypatch, capsys):
    def builder(**params):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setitem(scenarios._BUILDERS, "chain", builder)
    out = tmp_path / "chain.csv"
    code = main(["generate", "--kind", "chain", "--param", "n=1", "--out", str(out)])
    assert code == 1
    assert "error: out of memory: Unable to allocate 72.8 TiB" in capsys.readouterr().err
    assert not out.exists()


def test_generate_is_byte_identical_across_runs(tmp_path):
    args = [
        "generate", "--kind", "blob",
        "--param", "n=25", "--param", "spacing=1.0", "--param", "jitter=0.2",
        "--seed", "7",
    ]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert _read_bytes(a) == _read_bytes(b)


def test_generate_seed_changes_output(tmp_path):
    base = [
        "generate", "--kind", "blob",
        "--param", "n=25", "--param", "spacing=1.0", "--param", "jitter=0.2",
    ]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(base + ["--seed", "1", "--out", a]) == 0
    assert main(base + ["--seed", "2", "--out", b]) == 0
    assert _read_bytes(a) != _read_bytes(b)


def test_generate_unknown_kind(tmp_path, capsys):
    code = main(["generate", "--kind", "spiral", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "unknown scenario kind" in capsys.readouterr().err


def test_generate_bad_param_syntax(tmp_path, capsys):
    code = main(
        ["generate", "--kind", "chain", "--param", "n:5", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_generate_bad_param_value(tmp_path, capsys):
    code = main(
        [
            "generate", "--kind", "chain",
            "--param", "n=0", "--param", "spacing=1.0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    assert "positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def test_trajectory_motorcade(tmp_path, motorcade_csv):
    out = str(tmp_path / "frames.json")
    events_path = str(tmp_path / "events.json")
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", out, "--events", events_path,
        ]
    )
    assert code == 0
    frames = _read_json(out)
    assert frames["radius"] == 15.0
    assert frames["n_frames"] == 161
    assert frames["frames"][0]["labels"] == [1] * 7
    mid = next(f for f in frames["frames"] if f["t"] == 80.0)
    assert sorted(set(mid["labels"])) == [1, 2]
    events = _read_json(events_path)
    assert [(e["t"], e["kind"]) for e in events] == [(35.0, "split"), (139.0, "merge")]
    assert events[0]["member_ids"] == [0, 1, 2, 3, 4, 5, 6]


def test_trajectory_default_events_path(tmp_path, motorcade_csv):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    out = str(out_dir / "frames.json")
    assert main(["trajectory", "--input", motorcade_csv, "--radius", "15", "--out", out]) == 0
    assert (out_dir / "events.json").exists()


@pytest.mark.parametrize("events", [None, "events.json", "./events.json"])
def test_trajectory_refuses_events_path_equal_to_out(tmp_path, monkeypatch, capsys, motorcade_csv, events):
    # With no --events the events go to events.json next to --out.
    monkeypatch.chdir(tmp_path)
    argv = ["trajectory", "--input", motorcade_csv, "--radius", "15", "--out", "events.json"]
    if events is not None:
        argv += ["--events", events]
    assert main(argv) == 1
    assert "same file" in capsys.readouterr().err
    assert not (tmp_path / "events.json").exists()


def test_trajectory_svg_of_3d_points_writes_nothing(tmp_path, capsys):
    inp = tmp_path / "traj.csv"
    inp.write_text("t,id,x,y,z\n0,0,0.0,0.0,0.0\n1,0,1.0,0.0,0.0\n")
    svg_dir = tmp_path / "plots"
    code = main(
        [
            "trajectory", "--input", str(inp), "--radius", "1",
            "--out", str(tmp_path / "frames.json"), "--svg", str(svg_dir),
        ]
    )
    assert code == 1
    assert "--svg needs 2-d points, got d=3" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_trajectory_unwritable_events_leaves_no_frames(tmp_path, capsys, motorcade_csv):
    run = tmp_path / "run"
    run.mkdir()
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", str(run / "frames.json"), "--events", str(run / "nodir" / "events.json"),
        ]
    )
    assert code == 1
    assert "nodir" in capsys.readouterr().err
    assert list(run.iterdir()) == []


def test_trajectory_unusable_svg_dir_leaves_no_json(tmp_path, motorcade_csv):
    run = tmp_path / "run"
    run.mkdir()
    blocker = run / "plots"
    blocker.write_text("not a directory")
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", str(run / "frames.json"), "--svg", str(blocker),
        ]
    )
    assert code == 1
    assert [p.name for p in run.iterdir()] == ["plots"]
    assert blocker.read_text() == "not a directory"


def test_trajectory_failed_frame_svg_removes_what_the_run_wrote(tmp_path, motorcade_csv):
    # The second frame's SVG path is taken by a directory, so the run fails
    # after writing both JSONs and the first frame's SVG.
    run = tmp_path / "run"
    svg_dir = run / "plots"
    (svg_dir / "frame_0001.svg").mkdir(parents=True)
    (svg_dir / "keep.txt").write_text("mine")
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", str(run / "frames.json"), "--svg", str(svg_dir),
        ]
    )
    assert code == 1
    assert [p.name for p in run.iterdir()] == ["plots"]
    assert sorted(p.name for p in svg_dir.iterdir()) == ["frame_0001.svg", "keep.txt"]


def test_trajectory_failed_frame_svg_removes_a_new_svg_dir(tmp_path, monkeypatch, motorcade_csv):
    import radclust.svgplot as svgplot

    render = svgplot.render_points_svg
    calls = []

    def failing_third_frame(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return render(*args, **kwargs)

    monkeypatch.setattr(svgplot, "render_points_svg", failing_third_frame)
    run = tmp_path / "run"
    run.mkdir()
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", str(run / "frames.json"), "--svg", str(run / "plots"),
        ]
    )
    assert code == 1 and len(calls) == 3
    assert list(run.iterdir()) == []


def test_trajectory_failed_frame_svg_removes_new_parent_dirs(
    tmp_path, monkeypatch, motorcade_csv
):
    # As above, with the SVG directory two levels below any that exists:
    # makedirs creates a/, a/b/ and a/b/plots/, and all three go.
    import radclust.svgplot as svgplot

    render = svgplot.render_points_svg
    calls = []

    def failing_third_frame(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return render(*args, **kwargs)

    monkeypatch.setattr(svgplot, "render_points_svg", failing_third_frame)
    run = tmp_path / "run"
    run.mkdir()
    (run / "keep.txt").write_text("mine")
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", str(run / "frames.json"), "--svg", str(run / "a" / "b" / "plots"),
        ]
    )
    assert code == 1 and len(calls) == 3
    assert [p.name for p in run.iterdir()] == ["keep.txt"]


def test_trajectory_writes_frame_svgs(tmp_path, motorcade_csv):
    out = str(tmp_path / "frames.json")
    svg_dir = tmp_path / "plots"
    code = main(
        [
            "trajectory", "--input", motorcade_csv, "--radius", "15",
            "--out", out, "--svg", str(svg_dir),
        ]
    )
    assert code == 0
    files = sorted(p.name for p in svg_dir.iterdir())
    assert len(files) == 161
    assert files[0] == "frame_0000.svg" and files[-1] == "frame_0160.svg"


def test_trajectory_single_frame_has_no_events(tmp_path):
    inp = tmp_path / "one.csv"
    inp.write_text("t,id,x,y\n0,0,0.0,0.0\n0,1,1.0,0.0\n")
    out = str(tmp_path / "frames.json")
    events_path = str(tmp_path / "events.json")
    code = main(
        [
            "trajectory", "--input", str(inp), "--radius", "2",
            "--out", out, "--events", events_path,
        ]
    )
    assert code == 0
    assert _read_json(events_path) == []
    assert _read_json(out)["n_frames"] == 1


def test_trajectory_static_scene_has_no_events(tmp_path):
    inp = tmp_path / "static.csv"
    rows = ["t,id,x,y"]
    for t in range(3):
        rows += [f"{t},0,0.0,0.0", f"{t},1,1.0,0.0", f"{t},2,50.0,0.0"]
    inp.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "frames.json")
    events_path = str(tmp_path / "events.json")
    assert (
        main(
            [
                "trajectory", "--input", str(inp), "--radius", "2",
                "--out", out, "--events", events_path,
            ]
        )
        == 0
    )
    assert _read_json(events_path) == []
    assert all(sorted(set(f["labels"])) == [1, 2] for f in _read_json(out)["frames"])


def test_trajectory_rejects_inconsistent_ids(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("t,id,x,y\n0,0,0.0,0.0\n1,7,0.0,0.0\n")
    code = main(
        ["trajectory", "--input", str(inp), "--radius", "1", "--out", str(tmp_path / "f.json")]
    )
    assert code == 1
    assert "t=1.0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_trajectory_rejects_coordinates_outside_safe_range(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("t,id,x,y\n0,0,0.0,0.0\n1,0,1e-200,0.0\n")
    code = main(
        ["trajectory", "--input", str(inp), "--radius", "1", "--out", str(tmp_path / "f.json")]
    )
    assert code == 1
    assert f"{inp}: frame t=1.0: point 0: coordinate 1e-200" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_trajectory_rejects_decreasing_timestamps(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("t,id,x,y\n5,0,0.0,0.0\n4,0,0.0,0.0\n")
    code = main(
        ["trajectory", "--input", str(inp), "--radius", "1", "--out", str(tmp_path / "f.json")]
    )
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_trajectory_equirect_projection_changes_partition(tmp_path):
    # Two walkers 0.5 degrees of latitude apart: ~55 km in meters, but only
    # 0.5 "units" in raw coordinates.  With a 100 m radius they cluster
    # together raw and apart projected.
    inp = tmp_path / "geo.csv"
    inp.write_text(
        "t,id,lat,lon\n"
        "0,0,45.0,7.0\n"
        "0,1,45.5,7.0\n"
        "1,0,45.0,7.0\n"
        "1,1,45.5,7.0\n"
    )
    raw_out = str(tmp_path / "raw.json")
    proj_out = str(tmp_path / "proj.json")
    assert (
        main(
            [
                "trajectory", "--input", str(inp), "--radius", "100",
                "--out", raw_out, "--events", str(tmp_path / "e1.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "trajectory", "--input", str(inp), "--radius", "100",
                "--out", proj_out, "--events", str(tmp_path / "e2.json"),
                "--project", "equirect",
            ]
        )
        == 0
    )
    assert _read_json(raw_out)["frames"][0]["labels"] == [1, 1]
    assert _read_json(proj_out)["frames"][0]["labels"] == [1, 2]


def test_trajectory_equirect_keeps_a_pair_across_the_antimeridian_together(tmp_path):
    # 179.95 and -179.95 degrees at latitude -17 are about 10.6 km apart.
    inp = tmp_path / "geo.csv"
    inp.write_text("t,id,lat,lon\n0,0,-17.0,179.95\n0,1,-17.0,-179.95\n")
    out = str(tmp_path / "proj.json")
    code = main(
        ["trajectory", "--input", str(inp), "--radius", "50000", "--out", out, "--project", "equirect"]
    )
    assert code == 0
    assert _read_json(out)["frames"][0]["labels"] == [1, 1]


def test_trajectory_equirect_refuses_latitudes_beyond_the_poles(tmp_path, capsys):
    # Raw, the pair splits at t=1; as latitudes, 95 and -95 are not on Earth.
    inp = tmp_path / "geo.csv"
    inp.write_text("t,id,lat,lon\n0,0,95.0,7.0\n0,1,95.0,7.0\n1,0,95.0,7.0\n1,1,-95.0,7.0\n")
    out, events = tmp_path / "f.json", tmp_path / "e.json"
    code = main(
        [
            "trajectory", "--input", str(inp), "--radius", "100",
            "--out", str(out), "--events", str(events), "--project", "equirect",
        ]
    )
    assert code == 1
    assert "frame t=0.0: point 0: latitude 95.0" in capsys.readouterr().err
    assert not out.exists() and not events.exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_reports_plan_and_partition_agreement(tmp_path):
    out = str(tmp_path / "bench.json")
    code = main(["bench", "--bench-n", "2,7,10,100", "--out", out, "--seed", "0"])
    assert code == 0
    records = _read_json(out)
    by_n = {rec["n"]: rec for rec in records}
    assert set(by_n) == {2, 7, 10, 100}
    assert by_n[7]["k"] == 3 and by_n[7]["m"] == 2
    assert by_n[7]["naive_mults"] == 2 and by_n[7]["fast_mults"] == 2
    assert by_n[100]["k"] == 50 and by_n[100]["m"] == 6
    assert by_n[100]["naive_mults"] == 49 and by_n[100]["fast_mults"] == 6
    for n, rec in by_n.items():
        if n <= 64:
            assert rec["naive_executed"] is True
            assert rec["partitions_match"] is True
        else:
            assert rec["naive_executed"] is False
            assert rec["partitions_match"] is None
        assert "wall_seconds" not in rec
        k = n // 2
        assert 2 ** rec["m"] >= k
        assert rec["fast_mults"] <= max(rec["naive_mults"], rec["fast_mults"])


def test_bench_growth_gap(tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--bench-n", "1000", "--out", out]) == 0
    (rec,) = _read_json(out)
    assert rec["naive_mults"] == 499
    assert rec["fast_mults"] == 9
    assert rec["m"] == math.ceil(math.log2(500))


def test_bench_reports_sizes_above_the_limit_from_the_plan(tmp_path):
    # No N x N matrix is built above the 64-node check: 10**5 nodes would
    # need 10 GB for the adjacency and 110 GB for the squarings.
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--bench-n", "2,100000", "--out", out]) == 0
    small, large = _read_json(out)
    assert small["partitions_match"] is True
    assert large == {
        "n": 100000,
        "k": 50000,
        "m": 16,
        "naive_mults": 49999,
        "fast_mults": 16,
        "naive_executed": False,
        "partitions_match": None,
    }


def test_bench_rejects_bad_sizes(tmp_path, capsys):
    assert main(["bench", "--bench-n", "5,x", "--out", str(tmp_path / "b.json")]) == 1
    assert "invalid" in capsys.readouterr().err
    assert main(["bench", "--bench-n", "0", "--out", str(tmp_path / "b.json")]) == 1


# ---------------------------------------------------------------------------
# end-to-end determinism
# ---------------------------------------------------------------------------


def test_repeat_runs_are_byte_identical(tmp_path, motorcade_csv):
    inp = str(tmp_path / "chain.csv")
    _write_chain_csv(inp, n=9, spacing=0.8)
    outputs = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        labels = str(d / "labels.json")
        svg = str(d / "plot.svg")
        frames = str(d / "frames.json")
        events = str(d / "events.json")
        bench = str(d / "bench.json")
        assert main(["cluster", "--input", inp, "--radius", "1.0", "--out", labels, "--svg", svg]) == 0
        assert (
            main(
                [
                    "trajectory", "--input", motorcade_csv, "--radius", "15",
                    "--out", frames, "--events", events,
                ]
            )
            == 0
        )
        assert main(["bench", "--bench-n", "2,7,50", "--out", bench, "--seed", "3"]) == 0
        outputs[tag] = {
            name: _read_bytes(path)
            for name, path in [
                ("labels", labels),
                ("svg", svg),
                ("frames", frames),
                ("events", events),
                ("bench", bench),
            ]
        }
    assert outputs["first"] == outputs["second"]


# ---------------------------------------------------------------------------
# Byte-identity goldens
# ---------------------------------------------------------------------------


def _integer_walkers(n_frames=40, n=30, side=1000):
    """Random walkers in a square, drawn by a 64-bit LCG on integers.

    Positions are integers in ``0..side`` that step by up to 30 per frame
    and reflect at the walls; coordinates are those integers over ``side``,
    one correctly rounded division each, so the input is the same on every
    platform and numpy version.
    """
    state = 2016

    def draw(m):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % m

    pos = [[draw(side + 1), draw(side + 1)] for _ in range(n)]
    frames = []
    for t in range(n_frames):
        for p in pos:
            for k in (0, 1):
                v = p[k] + draw(61) - 30
                p[k] = -v if v < 0 else 2 * side - v if v > side else v
        coords = [[x / side, y / side] for x, y in pos]
        frames.append(Frame(float(t), PointSet(coords)))
    return frames


# SHA-256 of frames.json and events.json for ``_integer_walkers()`` at r = 0.15.
GOLDEN_DIGESTS = [
    "550f776dbb4ad7b252df3ceaac64a6cd0685789d551625891a04f235193cfe50",
    "18bdd75fd137aa021ce0d850b1cf4531773ec673b5e3f1f190287af6e14b3d96",
]
GOLDEN_EVENT_COUNT = 75


def test_trajectory_outputs_match_their_golden_hashes(tmp_path):
    # Any change to clustering, event detection or the writers that moves
    # one byte of frames.json or events.json fails here.
    inp = str(tmp_path / "walkers.csv")
    write_trajectory_csv(_integer_walkers(), inp)
    out, events = str(tmp_path / "frames.json"), str(tmp_path / "events.json")
    argv = ["trajectory", "--input", inp, "--radius", "0.15", "--out", out]
    assert main([*argv, "--events", events]) == 0
    assert len(_read_json(events)) == GOLDEN_EVENT_COUNT
    digests = [hashlib.sha256(_read_bytes(p)).hexdigest() for p in (out, events)]
    assert digests == GOLDEN_DIGESTS
