"""A/B the end-to-end benchmark: this checkout against a base revision.

::

    python benchmarks/ab.py BASE
    make perf-ab BASE=REV

``BASE`` is the only argument.  Both sides run from sibling copies
whose paths have the same length, ``.bench_build/ab/base`` and
``.bench_build/ab/work``, because a run's ``peak_rss_mb`` depends on its
tree's path: the same code read up to half a MiB apart from two
directories whose names differ in length.  The base copy is ``git
archive BASE``; the change copy is this checkout as it stands: every
tracked file with its uncommitted edits, and every untracked file that
``.gitignore`` does not exclude.  Then, for every workload
``BENCHMARK.json`` declares and each of the seeds 0-9, it runs the
command ``BENCHMARK.json`` declares (``perfbench/run.py --workload W
--seed N --seconds S --trace 0``, ``S`` being its ``run_seconds``) once
in each copy, alternating which goes first: the base on even pair
numbers, the change on odd ones.  Each run's last stdout line is its
JSON result.

For every workload and every ``end_to_end`` metric of ``BENCHMARK.json``
it prints both medians, both quartile ranges (first to third quartile),
the relative change of the median, and how many pairs the change won:
strictly better by the metric's ``better`` direction, ties counting for
neither side.

After a workload's ten pairs comes one traced pair on seed 0 (``--trace
1``, the base first).  For every ``per_layer`` metric of
``BENCHMARK.json`` it prints the base value, the change value and the
relative change.  Those are one sample each, where per-layer deltas
show, not a gate: they count toward neither the wins nor the exit
status unless a traced run fails.  Both copies are removed afterwards.

Exit status: 0 when every run produced a correct result with no failed
operation, 1 otherwise (each failing run is named on stderr), 2 when
``BASE`` is not a commit or a copy cannot be made.  perfbench is only
called here, never edited, and nothing is written to
``BENCH_PERF.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import typing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
TREES = pathlib.Path(".bench_build", "ab")
"""Where the two copies go, relative to the repository root."""
TREE_NAMES = {"base": "base", "change": "work"}
"""Each side's copy: names of one length, so the paths have one length."""
SEEDS = tuple(range(10))
"""One alternating pair per seed."""


class ABError(Exception):
    """The A/B run could not be set up."""


# -- statistics (pure; unit-tested on canned result lines) --------------------------


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is not a JSON object")
    return result


def problems(result: dict) -> list[str]:
    """Why a parsed result does not count as a clean run (empty if it does)."""
    found = []
    if result.get("correct") is not True:
        found.append("correct is not true")
    if result.get("failed", 0) != 0:
        found.append(f"{result.get('failed')} failed operation(s)")
    return found


def quartiles(values: typing.Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: typing.Sequence[tuple[dict, dict]], metric: dict
) -> dict[str, typing.Any]:
    """One metric over (base, change) result pairs: quartiles and wins."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    base = [b["metrics"][name]["value"] for b, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    base_q, change_q = quartiles(base), quartiles(change)
    return {
        "metric": name,
        "unit": metric.get("unit", ""),
        "base": base_q,
        "change": change_q,
        "delta": (change_q[1] - base_q[1]) / base_q[1] if base_q[1] else float("nan"),
        "wins": sum((c < b) if lower else (c > b) for b, c in zip(base, change)),
        "pairs": len(pairs),
    }


def traced_rows(base: dict, change: dict, metrics: typing.Sequence[dict]) -> list[dict]:
    """One traced pair's value of every declared per-layer metric."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        before = base["metrics"][name]["value"]
        after = change["metrics"][name]["value"]
        rows.append(
            {
                "metric": name,
                "unit": metric.get("unit", ""),
                "base": before,
                "change": after,
                "delta": (after - before) / before if before else float("nan"),
            }
        )
    return rows


def render_traced(workload: str, seed: int, rows: list[dict]) -> str:
    """A fixed-width table of :func:`traced_rows` for one workload."""
    lines = [
        f"{workload}: traced pair, seed {seed} (one sample each, not a gate)",
        f"  {'metric':<34} {'base value':>12} {'change value':>12} {'change':>8}",
    ]
    for row in rows:
        label = f"{row['metric']} ({row['unit']})"
        lines.append(
            f"  {label:<34} {row['base']:>12.4g} {row['change']:>12.4g} "
            f"{row['delta']:>+8.1%}"
        )
    return "\n".join(lines)


def render(workload: str, seeds: typing.Sequence[int], rows: list[dict]) -> str:
    """A fixed-width table of :func:`summarize` rows for one workload."""
    lines = [
        f"{workload}: {len(seeds)} pair(s), seeds {','.join(map(str, seeds))}",
        f"  {'metric':<18} {'base median':>11} {'base q1-q3':>15} "
        f"{'change median':>13} {'change q1-q3':>15} {'change':>8} {'wins':>6}",
    ]
    for row in rows:
        label = f"{row['metric']} ({row['unit']})"
        (b1, b_median, b3), (c1, c_median, c3) = row["base"], row["change"]
        wins = f"{row['wins']}/{row['pairs']}"
        lines.append(
            f"  {label:<18} {b_median:>11.3f} {f'{b1:.3f}-{b3:.3f}':>15} "
            f"{c_median:>13.3f} {f'{c1:.3f}-{c3:.3f}':>15} "
            f"{row['delta']:>+8.1%} {wins:>6}"
        )
    return "\n".join(lines)


# -- running ------------------------------------------------------------------------


def _git(root: pathlib.Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise ABError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def tree_paths(root: pathlib.Path = REPO_ROOT) -> dict[str, pathlib.Path]:
    """Each side's copy under ``root``: siblings, paths of one length."""
    return {side: root / TREES / name for side, name in TREE_NAMES.items()}


def remove_trees(trees: dict[str, pathlib.Path]) -> None:
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)


def make_trees(base: str, root: pathlib.Path = REPO_ROOT) -> dict[str, pathlib.Path]:
    """Fresh copies of ``base`` and of ``root``'s checkout as it stands.

    The change copy is made first, so it cannot pick up the base copy
    even where ``.gitignore`` does not exclude ``.bench_build``.
    """
    commit = _git(root, "rev-parse", "--verify", f"{base}^{{commit}}").strip()
    trees = tree_paths(root)
    remove_trees(trees)
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listed.split("\0")) - {""}):
        source = root / name
        if not os.path.lexists(source):
            continue  # a tracked file deleted in the checkout
        target = trees["change"] / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)
    trees["base"].mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=root, capture_output=True
    )
    if archive.returncode != 0:
        raise ABError(f"git archive {commit}: {archive.stderr.decode().strip()}")
    untar = subprocess.run(
        ["tar", "-x", "-C", str(trees["base"])], input=archive.stdout,
        capture_output=True,
    )
    if untar.returncode != 0:
        raise ABError(f"tar: {untar.stderr.decode().strip()}")
    return trees


def run_once(
    command: list[str],
    tree: pathlib.Path,
    workload: str,
    seed: int,
    seconds: int,
    trace: int = 0,
) -> tuple[dict | None, str]:
    """One benchmark run in ``tree``: (parsed result or None, diagnosis)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    argv = [
        *command, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    try:
        result = last_json(done.stdout)
    except ValueError as error:
        tail = (done.stderr or done.stdout).strip().splitlines()[-1:]
        return None, f"exit {done.returncode}, no result ({error}) {' '.join(tail)}"
    return result, "; ".join(problems(result))


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [workload["name"] for workload in declared["workloads"]]
    seconds = int(declared["run_seconds"])
    parser = argparse.ArgumentParser(
        description="A/B perfbench between BASE and this checkout."
    )
    parser.add_argument("base", metavar="BASE", help="the base revision")
    args = parser.parse_args(argv)
    try:
        trees = make_trees(args.base)
    except (ABError, OSError) as error:
        remove_trees(tree_paths())
        print(f"error: {error}", file=sys.stderr)
        return 2
    status = 0
    try:
        for workload in names:
            pairs, paired = [], []
            for index, seed in enumerate(SEEDS):
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                results = {}
                for side in order:
                    result, trouble = run_once(
                        declared["command"], trees[side], workload, seed, seconds
                    )
                    print(
                        f"ab: {workload} seed {seed} {side}: "
                        + (trouble or "ok"),
                        file=sys.stderr,
                    )
                    if trouble:
                        status = 1
                    results[side] = result
                if results["base"] is not None and results["change"] is not None:
                    pairs.append((results["base"], results["change"]))
                    paired.append(seed)
            if pairs:
                rows = [summarize(pairs, metric) for metric in declared["end_to_end"]]
                print(render(workload, paired, rows), flush=True)
            traced = {}
            for side in ("base", "change"):
                result, trouble = run_once(
                    declared["command"], trees[side], workload, SEEDS[0],
                    seconds, trace=1,
                )
                print(
                    f"ab: {workload} traced seed {SEEDS[0]} {side}: "
                    + (trouble or "ok"),
                    file=sys.stderr,
                )
                if trouble:
                    status = 1
                traced[side] = result
            if traced["base"] is not None and traced["change"] is not None:
                rows = traced_rows(
                    traced["base"], traced["change"], declared["per_layer"]
                )
                print(render_traced(workload, SEEDS[0], rows), flush=True)
    finally:
        remove_trees(trees)
    return status


if __name__ == "__main__":
    sys.exit(main())
