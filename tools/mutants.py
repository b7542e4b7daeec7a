"""Mutant gate: every exactness claim the docstrings make is pinned by a test.

Each entry below changes one exact piece of text in one library file, the
way a plausible slip would, and names the tier-1 tests that must fail under
it (mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer 1978).  An
entry that changes no output at all lists the proof of that instead of
tests.

For every entry the runner checks that its old text occurs exactly once and
that the mutated file compiles.  It then copies ``src/`` to a temporary
directory, runs every listed test there unmutated (all must pass), and
runs each killable entry's tests on its own mutated copy.  Each pytest run
has ``TIMEOUT`` seconds.  An entry is killed when each of its tests fails,
or when they run past the limit.  Tests run from the checkout, with the
copy first on ``PYTHONPATH``, a fixed Hypothesis seed and Hypothesis's
files in the temporary directory, so the checkout is left as it was.

    python tools/mutants.py

Exit status 0 when every killable entry is killed, 1 when one survives, an
entry is stale or a listed test fails unmutated.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIFF = "tests/test_differential.py::"
GEOM = "tests/test_geometry.py::"

# Seconds allowed for one pytest run; an entry's tests take a few today.
TIMEOUT = 60.0


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids, each of which must fail
    equivalent: str = ""  # why no output changes, for an entry with no tests


MUTANTS = (
    # The strict predicate: a pair at distance exactly r is not adjacent.
    Mutant(
        "strict-predicate",
        "src/radclust/geometry.py",
        "keep = np.sqrt(total) < radius",
        "keep = np.sqrt(total) <= radius",
        (DIFF + "test_adjacency_matches_unchunked_expression",
         GEOM + "test_distance_exactly_at_radius_is_not_adjacent"),
    ),
    # One distance predicate, sqrt of the squares added left to right, and no other.
    Mutant(
        "squared-predicate",
        "src/radclust/geometry.py",
        "keep = np.sqrt(total) < radius",
        "keep = total < radius * radius",
        (DIFF + "test_adjacency_matches_unchunked_expression",),
    ),
    Mutant(
        "sum-order",
        "src/radclust/geometry.py",
        "    total = 0.0\n"
        "    for k in range(coords.shape[1]):\n"
        "        e = coords[i, k] - coords[j, k]\n"
        "        total = total + e * e\n",
        "    total = ((coords[i] - coords[j]) ** 2).sum(axis=-1)\n",
        (GEOM + "test_adjacency_adds_the_squares_left_to_right",),
    ),
    # Only the first addition commutes: added right to left, swapping axes 0
    # and 1 moves a pair at the boundary across it.
    Mutant(
        "sum-reversed",
        "src/radclust/geometry.py",
        "for k in range(coords.shape[1]):",
        "for k in reversed(range(coords.shape[1])):",
        (GEOM + "test_labels_do_not_change_when_axes_0_and_1_swap",),
    ),
    # No tolerance: an absolute one breaks the power-of-two scale invariance.
    Mutant(
        "absolute-tolerance",
        "src/radclust/geometry.py",
        "keep = np.sqrt(total) < radius",
        "keep = np.sqrt(total) < radius + 1e-12",
        (GEOM + "test_labels_do_not_change_when_coordinates_and_r_scale_by_a_power_of_two",),
    ),
    # Each kept pair is set both ways: one way, a cross-cell edge lies only
    # in the row of the pair's point in the lower cell, and the hooking's
    # labels then depend on the row order.
    Mutant(
        "one-way-edges",
        "src/radclust/geometry.py",
        "    bits[j, i] = True\n",
        "",
        (GEOM + "test_adjacency_and_labels_permute_with_the_rows",),
    ),
    # The cell itself is an offset: without it no point meets a coincident
    # twin (or itself) in its own cell.
    Mutant(
        "zero-half-offset",
        "src/radclust/geometry.py",
        "if o >= (0,) * m",
        "if o > (0,) * m",
        (GEOM + "test_a_coincident_point_takes_its_twins_row_and_label_and_moves_no_other",),
    ),
    # The safe range: nothing below 2**-500, where squares underflow.
    Mutant(
        "safe-range-wider",
        "src/radclust/geometry.py",
        "SCALE_MIN = 2.0**-500",
        "SCALE_MIN = 2.0**-600",
        (GEOM + "test_adjacency_is_exact_at_the_ends_of_the_safe_range",),
    ),
    Mutant(
        "safe-coordinates-unchecked",
        "src/radclust/geometry.py",
        "safe = (mag == 0.0) | ((mag >= SCALE_MIN) & (mag <= SCALE_MAX))",
        "safe = np.isfinite(mag)",
        (GEOM + "test_adjacency_rejects_coordinates_outside_safe_range",
         GEOM + "test_point_rejects_bad_coords"),
    ),
    Mutant(
        "safe-radius-unchecked",
        "src/radclust/geometry.py",
        "if not SCALE_MIN <= r <= SCALE_MAX:",
        "if False:",
        (GEOM + "test_config_rejects_radius_outside_safe_range",
         "tests/test_cli.py::test_cluster_rejects_radius_outside_safe_range"),
    ),
    # The cell side: exactly r, and no narrower.
    Mutant(
        "cell-side-narrower",
        "src/radclust/geometry.py",
        "pairs = _CellPairs(coords, cfg.radius)",
        "pairs = _CellPairs(coords, cfg.radius * (1 - 2.0**-52))",
        (DIFF + "test_adjacency_one_ulp_inside_r_across_two_edges_of_a_narrower_cell",),
    ),
    Mutant(
        "cell-side-margin",
        "src/radclust/geometry.py",
        "pairs = _CellPairs(coords, cfg.radius)",
        "pairs = _CellPairs(coords, cfg.radius * (1 + 2.0**-40))",
        equivalent=(
            "Fact 2 of the geometry docstring holds for any float side s, so at"
            " s >= r an edge, whose axis differences are below r (fact 1), still"
            " has cells at most 1 apart: the candidates only grow, and the"
            " predicate alone decides every entry."
        ),
    ),
    # The neighbour step: floors exactly 1 apart are neighbours, no others.
    Mutant(
        "neighbour-step",
        "src/radclust/geometry.py",
        "np.add(gap != 0.0, gap > 1.0, out=step[1:], dtype=np.int64)",
        "np.add(gap != 0.0, gap >= 1.0, out=step[1:], dtype=np.int64)",
        ("tests/test_acceptance.py::test_criterion_3_chains_stay_whole",
         GEOM + "test_chain_adjacency_is_tridiagonal"),
    ),
    Mutant(
        "grid-axes",
        "src/radclust/geometry.py",
        "m = min(coords.shape[1], 3)",
        "m = min(coords.shape[1], 2)",
        (GEOM + "test_cell_pairs_match_the_reference_grid_numbering",),
    ),
    # Key width: a grid whose keys pass int64 is refused, not wrapped.
    Mutant(
        "key-width",
        "src/radclust/geometry.py",
        "if math.prod(sizes) > 2**63 - 1:",
        "if False:",
        (GEOM + "test_cell_keys_refuse_a_grid_past_int64",),
    ),
    # float32 products are exact: an integer type of too narrow a range wraps.
    Mutant(
        "product-dtype",
        "src/radclust/matpower.py",
        "fa = a.bits.astype(np.float32)",
        "fa = a.bits.astype(np.int8)",
        ("tests/test_matpower.py::test_bool_multiply_counts_past_a_narrow_integer",),
    ),
    # The LabelVector contract: labels cover 1..C with none missing.
    Mutant(
        "label-contract",
        "src/radclust/clustering.py",
        "if arr.min() < 1 or arr.max() > arr.size or not np.bincount(arr)[1:].all():",
        "if arr.min() < 1 or arr.max() > arr.size:",
        ("tests/test_clustering.py::test_label_vector_refusals_keep_their_messages",),
    ),
    # Pointer jumping to a fixpoint only saves rounds.
    Mutant(
        "one-jump",
        "src/radclust/clustering.py",
        "        while True:\n"
        "            jumped = roots[roots]\n"
        "            if (jumped == roots).all():\n"
        "                break\n"
        "            roots[:] = jumped\n",
        "        roots[:] = roots[roots]\n",
        equivalent=(
            "The labels are unchanged (clustering docstring): a hook or a jump"
            " only lowers a pointer within its component, so parent[x] <= x; a"
            " round with no hook leaves every component pointing at its lowest"
            " index; with one jump every round that hooks lowers a pointer, so"
            " the loop ends with the same roots.  The round count differs (11"
            " against 8 on seed-3 cluster-chain), and the 2 floor(log2 n) + 1"
            " round bound is proved for full jumping only, as it needs every"
            " tree to be a star at the start of a round; this mutant meets it"
            " on the adversarial orders of test_differential, unproved.  Over"
            " every labelled graph on 3-7 nodes it needs at most 3, 3, 4, 4 and"
            " 4 rounds, as full jumping does, against bounds of 3, 5, 5, 5 and"
            " 5, though on one graph it can need up to 2 rounds more than full"
            " jumping (the path 0-1-2-3: 3 against 2)."
        ),
    ),
    # Canonical integer ids: 07, +7 and -0 stay strings.
    Mutant(
        "canonical-ids",
        "src/radclust/io.py",
        '_INT_RE = re.compile(r"-?[1-9][0-9]*\\Z|0\\Z")',
        '_INT_RE = re.compile(r"-?[0-9]+\\Z")',
        ("tests/test_io.py::test_points_csv_non_canonical_int_ids_stay_strings",
         "tests/test_cli.py::test_cluster_accepts_ids_equal_as_integers"),
    ),
    # Timestamp order: equal timestamps are allowed, decreasing ones are not.
    Mutant(
        "frame-timestamp-order",
        "src/radclust/trajectory.py",
        "if prev is not None and frame.t < prev.t:",
        "if prev is not None and frame.t <= prev.t:",
        ("tests/test_trajectory.py::test_equal_timestamps_are_allowed",),
    ),
    Mutant(
        "reader-timestamp-order",
        "src/radclust/io.py",
        "if t < previous:",
        "if False:",
        ("tests/test_io.py::test_trajectory_csv_rejects_decreasing_t",
         "tests/test_cli.py::test_trajectory_rejects_decreasing_timestamps"),
    ),
    # The reader refuses a non-finite value and reads each id stripped.
    Mutant(
        "reader-finite",
        "src/radclust/io.py",
        "if not math.isfinite(value):",
        "if False:",
        ("tests/test_io.py::test_points_csv_rejects_non_finite",
         "tests/test_io.py::test_points_csv_refusal_chains_no_exception[non-finite]"),
    ),
    Mutant(
        "reader-strips-ids",
        "src/radclust/io.py",
        "row[id_col].strip()",
        "row[id_col]",
        ("tests/test_io.py::test_points_csv_strips_ids_before_typing_them",),
    ),
    # The loadtxt pass reads only plain files, no line of which is longer
    # than the csv field size limit, and holds its rows to the walk's checks.
    Mutant(
        "fast-plain-quotes",
        "src/radclust/io.py",
        """bytes(range(0x20, 0x7F)).replace(b'"', b"")""",
        "bytes(range(0x20, 0x7F))",
        (DIFF + "test_csv_reader_matches_record_by_record_reader_property",),
    ),
    Mutant(
        "fast-line-length",
        "src/radclust/io.py",
        " or spans.max() > csv.field_size_limit() + 1:",
        ":",
        ("tests/test_io.py::test_points_csv_field_over_the_csv_size_limit_names_the_line",
         "tests/test_cli.py::test_cluster_field_over_the_csv_size_limit_exits_one"),
    ),
    Mutant(
        "fast-row-count",
        "src/radclust/io.py",
        "len(rows) != n_rows",
        "False",
        equivalent=(
            "On numpy 2.4.6, loadtxt with delimiter ',' and comments=None skips"
            " exactly the empty lines and refuses every other line whose field"
            " count is not the header's, so over a plain file its row count is"
            " the count of non-blank lines (no mismatch over 200,000 random"
            " plain files).  The check keeps the reader exact on a numpy whose"
            " rule for skipping lines differs."
        ),
    ),
    Mutant(
        "fast-finite",
        "src/radclust/io.py",
        "or not np.isfinite(block).all()",
        "or False",
        ("tests/test_io.py::test_points_csv_rejects_non_finite",
         "tests/test_io.py::test_points_csv_refusal_chains_no_exception[non-finite]"),
    ),
    Mutant(
        "fast-timestamp-order",
        "src/radclust/io.py",
        "or (id_col and not (block[1:, 0] >= block[:-1, 0]).all())",
        "or False",
        ("tests/test_io.py::test_trajectory_csv_rejects_decreasing_t",
         "tests/test_cli.py::test_trajectory_rejects_decreasing_timestamps"),
    ),
    Mutant(
        "fast-strips-ids",
        "src/radclust/io.py",
        """[raw_id.strip() for raw_id in rows["id"].tolist()]""",
        """rows["id"].tolist()""",
        ("tests/test_io.py::test_points_csv_strips_ids_before_typing_them",),
    ),
    # Events: a parent with two or more children splits.
    Mutant(
        "events-at-two",
        "src/radclust/trajectory.py",
        "keep = count >= 2",
        "keep = count > 2",
        ("tests/test_trajectory.py::test_simple_split_then_merge",
         "tests/test_acceptance.py::test_criterion_7_trajectory_events"),
    ),
    # The label matrix's columns, and so event members, go in id order.
    Mutant(
        "frames-in-id-order",
        "src/radclust/trajectory.py",
        "enumerate(sorted(first, key=_id_key))",
        "enumerate(first)",
        (DIFF + "test_events_match_brute_force_property",),
    ),
    # Nothing follows the hash order of string ids, which PYTHONHASHSEED sets.
    Mutant(
        "frames-in-hash-order",
        "src/radclust/trajectory.py",
        "enumerate(sorted(first, key=_id_key))",
        "enumerate(set(first))",
        ("tests/test_cli.py::test_outputs_do_not_depend_on_the_hash_seed[trajectory]",),
    ),
    # Events go by frame, splits before merges, then lowest member id.
    Mutant(
        "events-by-first-member",
        "src/radclust/trajectory.py",
        "e[:3]",
        "e[:2]",
        (DIFF + "test_events_match_brute_force_property",
         "tests/test_trajectory.py::test_events_sort_ids_that_mix_int_and_str"),
    ),
    # write_json's bytes are json.dumps(indent=2)'s, non-ASCII escaped.
    Mutant(
        "json-ascii",
        "src/radclust/io.py",
        "check_circular=False).encode(value)",
        "check_circular=False, ensure_ascii=False).encode(value)",
        (DIFF + "test_write_json_matches_json_dumps_indent_2_property",),
    ),
    # What write_json does not encode itself, json.dumps writes: the signal is
    # json's own TypeError.
    Mutant(
        "json-fallback-signal",
        "src/radclust/io.py",
        "except (TypeError, RecursionError):",
        "except RecursionError:",
        (DIFF + "test_write_json_matches_json_dumps_off_the_plain_types",),
    ),
    # The process ends by os._exit, after flushing what it printed, and
    # flushes no stream that was closed before it started.
    Mutant(
        "exit-flushes",
        "src/radclust/cli.py",
        "stream.flush()",
        "pass",
        ("tests/test_cli.py::test_module_help_exits_zero_with_the_help_main_prints",),
    ),
    Mutant(
        "exit-flushes-missing-stream",
        "src/radclust/cli.py",
        "if stream is not None:",
        "if True:",
        ("tests/test_cli.py::test_module_with_stdout_closed_exits_zero_with_the_bytes_main_writes",),
    ),
    # _outputs removes only the outputs the failed run created.
    Mutant(
        "outputs-keep-existing",
        "src/radclust/cli.py",
        "if path and not os.path.lexists(path)]",
        "if path]",
        ("tests/test_cli.py::test_cluster_malformed_input_keeps_an_existing_out_file",
         "tests/test_cli.py::test_trajectory_out_of_memory_keeps_existing_outputs"),
    ),
    # The trajectory writer names the first frame at fault: frames after the
    # first equal timestamps are not checked ahead of them.
    Mutant(
        "writer-frame-order",
        "src/radclust/io.py",
        "validate_frames(frames[:k])",
        "validate_frames(frames)",
        ("tests/test_io.py::"
         "test_trajectory_csv_writer_names_equal_timestamps_before_a_later_frame",),
    ),
    # project_equirect checks the trajectory rules through validate_frames.
    Mutant(
        "equirect-trajectory-rules",
        "src/radclust/io.py",
        "    validate_frames(frames)  # then every frame has the first frame's dimension\n",
        "",
        ("tests/test_io.py::test_equirect_refuses_what_validate_frames_refuses",),
    ),
    # Every refusal of project_equirect names its frame.
    Mutant(
        "equirect-frame-prefix",
        "src/radclust/io.py",
        'raise ValueError(f"frame t={frame.t}: {exc}") from None',
        "raise",
        ("tests/test_io.py::test_equirect_names_the_frame_of_a_projected_point_set_fault",
         "tests/test_cli.py::"
         "test_trajectory_equirect_names_the_frame_of_a_projected_point_outside_the_safe_range"),
    ),
    # validate_frames owns the rule that results match their frames: one
    # result per frame, refused first ...
    Mutant(
        "results-length",
        "src/radclust/trajectory.py",
        "    if results is not None and len(results) != len(frames):\n"
        '        raise ValueError("results and frames must have equal length")\n',
        "",
        ("tests/test_io.py::test_frames_payload_refuses_fewer_results_than_frames",
         "tests/test_svgplot.py::test_frame_svgs_require_matching_lengths"),
    ),
    # ... and, after the trajectory rules, one label per point in each frame.
    Mutant(
        "results-label-count",
        "src/radclust/trajectory.py",
        "if lv.labels.size != pos.size:",
        "if False:",
        ("tests/test_io.py::test_frames_payload_refuses_a_label_count_unlike_the_point_count",
         "tests/test_svgplot.py::test_frame_svgs_refuse_fewer_labels_than_points_before_writing",
         "tests/test_trajectory.py::test_detect_events_rejects_a_label_count_unlike_the_point_count"),
    ),
    # A single plot draws one marker per point, and no fewer.
    Mutant(
        "svg-label-count",
        "src/radclust/svgplot.py",
        "    if len(lv) != len(ps):\n"
        '        raise ValueError(f"{len(lv)} labels for {len(ps)} points")\n',
        "",
        ("tests/test_svgplot.py::test_svg_refuses_fewer_labels_than_points",),
    ),
    # The longer span is at least 160 ulps of the largest coordinate, so a
    # borrowed margin never falls below an ulp ...
    Mutant(
        "svg-ulp-floor",
        "src/radclust/svgplot.py",
        "span = max(max(x1 - x0, y1 - y0) or 1.0, _ULPS * ulp)",
        "span = max(x1 - x0, y1 - y0) or 1.0",
        ("tests/test_cli.py::test_cluster_svg_viewport_survives_a_span_below_an_ulp[no-width]",
         "tests/test_cli.py::test_cluster_svg_viewport_survives_a_span_below_an_ulp[no-height]"),
    ),
    # ... and a span at most 1/64 of the longer borrows its margins from it.
    Mutant(
        "svg-aspect-floor",
        "src/radclust/svgplot.py",
        "s if s * _THIN > span else span",
        "s if s > 0 else span",
        ("tests/test_cli.py::test_cluster_svg_keeps_a_thin_axis_in_view[tall]",
         "tests/test_cli.py::test_cluster_svg_keeps_a_thin_axis_in_view[sliver]",
         "tests/test_cli.py::test_cluster_svg_keeps_a_thin_axis_in_view[thin]"),
    ),
    # Equirectangular longitudes exactly 180 degrees away are not shifted.
    Mutant(
        "equirect-east",
        "src/radclust/io.py",
        "lon - lon_ref > 180.0",
        "lon - lon_ref >= 180.0",
        ("tests/test_io.py::test_equirect_keeps_longitudes_exactly_180_degrees_away",),
    ),
    Mutant(
        "equirect-west",
        "src/radclust/io.py",
        "lon - lon_ref < -180.0",
        "lon - lon_ref <= -180.0",
        ("tests/test_io.py::test_equirect_keeps_longitudes_exactly_180_degrees_away",),
    ),
)

_REPORTED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _mutated(mutant: Mutant) -> str:
    """The mutated text of the entry's file; ``ValueError`` if the entry is stale."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"its old text occurs {count} times in {mutant.path}")
    if bool(mutant.tests) == bool(mutant.equivalent):
        raise ValueError("it needs either killing tests or an equivalence proof")
    text = text.replace(mutant.old, mutant.new)
    compile(text, mutant.path, "exec")
    return text


def _pytest(src: str, tests) -> tuple[set[str] | None, str]:
    """Failed node ids of ``tests`` run against the package in ``src``.

    ``None`` when the run passes the time limit; its process group is killed.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        HYPOTHESIS_STORAGE_DIRECTORY=tempfile.mkdtemp(dir=os.path.dirname(src)),
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "--tb=no", "-rfE", *tests]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    if proc.returncode not in (0, 1):  # 2-5: interrupted, usage, no tests found
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{out}")
    return set(_REPORTED.findall(out)), out


def _covers(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def main() -> int:
    ok = True
    texts = {}
    for mutant in MUTANTS:
        try:
            texts[mutant.name] = _mutated(mutant)
        except (ValueError, SyntaxError) as exc:
            print(f"STALE      {mutant.name}: {exc}")
            ok = False
    if not ok:
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        src = os.path.join(work, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        failed, out = _pytest(src, sorted({t for m in MUTANTS for t in m.tests}))
        if failed is None or failed:
            print(f"BASELINE   listed tests fail unmutated:\n{out}")
            return 1
        for mutant in MUTANTS:
            if mutant.equivalent:
                print(f"equivalent {mutant.name}: {mutant.equivalent}")
                continue
            path = os.path.join(work, mutant.path)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(texts[mutant.name])
            start = time.perf_counter()
            try:
                failed, _ = _pytest(src, mutant.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            took = f"{time.perf_counter() - start:.1f} s"
            if failed is None:
                print(f"killed     {mutant.name}: timed out after {took}")
                continue
            passed = [t for t in mutant.tests if not _covers(t, failed)]
            if passed:
                ok = False
                print(f"SURVIVED   {mutant.name} ({took}): {', '.join(passed)} passed")
            else:
                print(f"killed     {mutant.name} ({took})")
    print("mutant gate:", "every killable mutant is killed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
