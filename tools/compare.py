"""Byte-identity check: the program's outputs here against another commit's.

    python tools/compare.py REF [--expect-change NAME ...]

Exports ``REF`` with ``git archive``, and copies the working tree's tracked
files and its untracked files that are not ignored, each into its own
temporary directory.  On both trees it runs the same fixed list, with the
tree's ``src/`` first on ``PYTHONPATH``:

* the ``radclust`` command of each benchmark workload (``perfbench/``) on
  its ``make_case`` input at seeds 3 and 999, full size;
* the four demos, which write ``demos/out/``;
* ``radclust bench --bench-n 2,7,10,64,100``;
* ``radclust generate`` of a 64-point chain at spacing 1, clustered at
  radius 1: every neighbour pair lies exactly at ``r``, so a predicate
  that is not strict shows here (the workloads' random inputs hold no
  such pair).

The inputs are generated once, by the working tree's ``perfbench``, and
both trees read the same files.  Each command also leaves a ``.log`` file:
its exit status, stdout and stderr, with the paths of the tree and of its
output directory written as ``<tree>`` and ``<out>``.  Every file either
tree wrote is compared byte for byte, and one row per file is printed.
``NAME`` is a file as its row names it, or an ``fnmatch`` pattern
(``cluster-sparse-*/plot.svg``).

This is evidence for a change, not a benchmark: it times nothing and sets
no bound.  It only reads ``perfbench/``, writes no bytecode there, and
writes nothing in the checkout.  Exit status 0 when every file is
identical or named by ``--expect-change``, 1 on any other difference,
including a file that only one tree wrote.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = (3, 999)
DEMOS = (
    "01_shape_gallery.py",
    "02_multiplication_costs.py",
    "03_density_fields.py",
    "04_motorcade_events.py",
)
BENCH_N = "2,7,10,64,100"
TIMEOUT = 600.0  # seconds for one command


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _export(ref: str, dest: str) -> None:
    """``git archive`` of ``ref``, unpacked into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _copy_working_tree(dest: str) -> None:
    """The tracked files and the untracked files that are not ignored."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(filter(None, listed.split("\0")))):
        src = os.path.join(ROOT, rel)
        if not os.path.lexists(src):  # deleted, not yet staged
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel), follow_symlinks=False)


def _run(tree: str, argv: list[str], log: str, out: str) -> None:
    """Run ``argv`` in ``tree``; write its status and output to ``log``.

    The paths of the tree and of its output directory ``out`` are written
    as ``<tree>`` and ``<out>``, so that the two trees' logs compare.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")])
        ),
        PYTHONDONTWRITEBYTECODE="1",
    )
    try:
        proc = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
        status, stdout, stderr = str(proc.returncode), proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        status, stdout, stderr = f"timed out after {TIMEOUT:.0f} s", "", ""
    text = f"exit {status}\n--- stdout\n{stdout}--- stderr\n{stderr}"
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text.replace(out, "<out>").replace(tree, "<tree>"))


def _outputs(tree: str, cases: dict, inputs: dict[str, str], out: str) -> None:
    """Run the fixed list in ``tree``; every output lands under ``out``."""
    radclust = [sys.executable, "-m", "radclust"]
    for name, case in cases.items():
        case_dir = os.path.join(out, name)
        os.makedirs(case_dir)
        argv = radclust + case.argv(inputs[name], case_dir)
        _run(tree, argv, os.path.join(case_dir, "run.log"), out)
    for demo in DEMOS:
        log = os.path.join(out, "demos", demo.removesuffix(".py") + ".log")
        _run(tree, [sys.executable, os.path.join("demos", demo)], log, out)
    demos_out = os.path.join(tree, "demos", "out")
    if os.path.isdir(demos_out):
        shutil.copytree(demos_out, os.path.join(out, "demos", "out"))
    bench = os.path.join(out, "bench")
    os.makedirs(bench)
    argv = radclust + ["bench", "--bench-n", BENCH_N, "--out", os.path.join(bench, "bench.json")]
    _run(tree, argv, os.path.join(bench, "run.log"), out)
    at_r = os.path.join(out, "chain-at-r")
    os.makedirs(at_r)
    points, labels = os.path.join(at_r, "points.csv"), os.path.join(at_r, "labels.json")
    argv = radclust + ["generate", "--kind", "chain", "--param", "n=64", "--param", "spacing=1"]
    _run(tree, argv + ["--out", points], os.path.join(at_r, "generate.log"), out)
    argv = radclust + ["cluster", "--input", points, "--radius", "1", "--out", labels]
    _run(tree, argv, os.path.join(at_r, "cluster.log"), out)


def _files(top: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(path, name), top).replace(os.sep, "/")
        for path, _, names in os.walk(top)
        for name in names
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare against, e.g. HEAD or main~1")
    parser.add_argument(
        "--expect-change", action="append", default=[], metavar="NAME",
        help="an output file (or fnmatch pattern) that may differ; repeatable",
    )
    args = parser.parse_args(argv)
    _git("rev-parse", "--verify", f"{args.ref}^{{commit}}")  # fails fast on a bad ref
    sys.dont_write_bytecode = True  # the import leaves perfbench/ as it was
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, make_case

    with tempfile.TemporaryDirectory(prefix="compare-") as work:
        trees = {"ref": os.path.join(work, "ref"), "tree": os.path.join(work, "tree")}
        for path in trees.values():
            os.makedirs(path)
        _export(args.ref, trees["ref"])
        _copy_working_tree(trees["tree"])
        cases = {f"{w}-{seed}": make_case(w, seed) for w in WORKLOADS for seed in SEEDS}
        inputs = {name: os.path.join(work, "inputs", name + ".csv") for name in cases}
        os.makedirs(os.path.join(work, "inputs"))
        for name, case in cases.items():
            case.write_input(inputs[name])
        outs = {side: os.path.join(work, side + "-out") for side in trees}
        for side, tree in trees.items():
            print(f"running the fixed list on {side} ...", file=sys.stderr, flush=True)
            _outputs(tree, cases, inputs, outs[side])

        ref_files, tree_files = _files(outs["ref"]), _files(outs["tree"])
        unexpected = 0
        changed = set()
        for name in sorted(ref_files | tree_files):
            if name not in tree_files:
                verdict = "only in ref"
            elif name not in ref_files:
                verdict = "only in tree"
            elif filecmp.cmp(
                os.path.join(outs["ref"], name), os.path.join(outs["tree"], name), shallow=False
            ):
                print(f"identical      {name}")
                continue
            else:
                verdict = "differs"
            patterns = [p for p in args.expect_change if fnmatch.fnmatchcase(name, p)]
            changed.update(patterns)
            if patterns:
                print(f"{verdict + ' (expected)':<14} {name}")
            else:
                unexpected += 1
                print(f"{verdict.upper():<14} {name}")
        for pattern in args.expect_change:
            if pattern not in changed:
                print(f"note: --expect-change {pattern!r} named no file that changed")
        total = len(ref_files | tree_files)
        print(f"{total} files against {args.ref}: {unexpected} differ unexpectedly")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
