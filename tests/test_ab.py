"""Unit tests for ``benchmarks/ab.py``: its statistics (canned result
lines, no runs) and the two trees it runs from (a throwaway git
repository)."""

import json
import math
import subprocess

import pytest

from benchmarks import ab
from benchmarks.ab import (
    ABError,
    last_json,
    make_trees,
    problems,
    quartiles,
    remove_trees,
    render,
    render_traced,
    summarize,
    traced_rows,
    tree_paths,
)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "hits", "unit": "count", "better": "higher"}


def _line(wall, correct=True, failed=0, hits=1.0):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 375,
            "failed": failed,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "hits": {"value": hits, "unit": "count"},
            },
        }
    )


def _stdout(wall, **kwargs):
    return f"table line\nperfbench: diagnostics {{}}\n{_line(wall, **kwargs)}\n\n"


class TestParsing:
    def test_reads_the_last_non_empty_line(self):
        result = last_json(_stdout(1.25))
        assert result["metrics"]["wall_s"]["value"] == 1.25

    def test_no_output_or_no_object_is_an_error(self):
        with pytest.raises(ValueError, match="printed nothing"):
            last_json("\n \n")
        with pytest.raises(ValueError):
            last_json("perfbench: error: crashed\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            last_json("table\n[1, 2]\n")

    def test_problems_name_incorrect_and_failed_runs(self):
        assert problems(last_json(_stdout(1.0))) == []
        assert problems(last_json(_stdout(1.0, correct=False))) == [
            "correct is not true"
        ]
        assert problems(last_json(_stdout(1.0, failed=3))) == [
            "3 failed operation(s)"
        ]


class TestStatistics:
    def test_quartiles_inclusive(self):
        assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)
        with pytest.raises(ValueError):
            quartiles([])

    def _pairs(self, base, change, **kwargs):
        return [
            (last_json(_stdout(b, **kwargs)), last_json(_stdout(c, **kwargs)))
            for b, c in zip(base, change)
        ]

    def test_quartiles_and_wins_for_a_lower_is_better_metric(self):
        base = [1.0, 1.2, 1.4, 1.6, 1.8, 1.3, 1.5, 1.1, 1.7, 1.9]
        change = [0.6, 0.7, 0.5, 0.8, 0.9, 0.6, 1.6, 0.7, 0.6, 0.5]
        row = summarize(self._pairs(base, change), WALL)
        assert row["pairs"] == 10
        assert row["base"] == pytest.approx((1.225, 1.45, 1.675))
        assert row["change"][1] == pytest.approx(0.65)
        assert row["wins"] == 9  # pair 7 (1.5 -> 1.6) is a loss
        assert row["delta"] == pytest.approx(0.65 / 1.45 - 1)

    def test_a_tie_is_not_a_win(self):
        row = summarize(self._pairs([1.0, 1.0, 2.0], [1.0, 0.9, 2.1]), WALL)
        assert row["wins"] == 1

    def test_higher_is_better_metrics_count_increases(self):
        pairs = [
            (last_json(_stdout(1.0, hits=h0)), last_json(_stdout(1.0, hits=h1)))
            for h0, h1 in [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)]
        ]
        row = summarize(pairs, HIGHER)
        assert row["wins"] == 2
        assert row["base"][1] == 1.0 and row["change"][1] == 2.0

    def test_zero_base_median_has_no_relative_change(self):
        row = summarize(self._pairs([0.0, 0.0], [1.0, 1.0]), WALL)
        assert math.isnan(row["delta"])

    def test_render_names_the_workload_seeds_and_each_metric(self):
        base = [1.0, 1.2, 1.4]
        change = [0.5, 0.6, 0.7]
        row = summarize(self._pairs(base, change), WALL)
        text = render("fleet-shard", [0, 1, 2], [row])
        assert text.splitlines()[0] == "fleet-shard: 3 pair(s), seeds 0,1,2"
        assert "wall_s (s)" in text and "3/3" in text
        assert "1.100-1.300" in text and "0.550-0.650" in text
        assert "-50.0%" in text


PER_LAYER = [
    {"name": "analysis.export_s", "unit": "s", "better": "lower"},
    {"name": "analysis.trace_mb", "unit": "MiB", "better": "lower"},
    {"name": "jobs.hit_ratio", "unit": "ratio", "better": "higher"},
]


def _traced_line(export_s, trace_mb, hits):
    """A ``--trace 1`` result line: every per-layer metric, one sample."""
    return json.dumps(
        {
            "correct": True,
            "attempted": 130,
            "failed": 0,
            "metrics": {
                "analysis.export_s": {"value": export_s, "unit": "s"},
                "analysis.trace_mb": {"value": trace_mb, "unit": "MiB"},
                "jobs.hit_ratio": {"value": hits, "unit": "ratio"},
                "trace.overhead": {"value": 1.5, "unit": "ratio"},
            },
        }
    )


class TestTracedPair:
    def _rows(self):
        base = last_json(f"table\n{_traced_line(0.4, 11.25, 0.0)}\n")
        change = last_json(f"table\n{_traced_line(0.1, 11.25, 0.0)}\n")
        return traced_rows(base, change, PER_LAYER)

    def test_rows_follow_the_declared_per_layer_metrics(self):
        rows = self._rows()
        assert [row["metric"] for row in rows] == [
            "analysis.export_s", "analysis.trace_mb", "jobs.hit_ratio",
        ]
        export, trace, hits = rows
        assert (export["base"], export["change"]) == (0.4, 0.1)
        assert export["delta"] == pytest.approx(-0.75)
        assert trace["delta"] == 0.0 and trace["unit"] == "MiB"
        assert math.isnan(hits["delta"])  # a zero base has no relative change

    def test_render_labels_one_sample_each_not_a_gate(self):
        text = render_traced("fleet-observed", 0, self._rows())
        lines = text.splitlines()
        assert lines[0] == (
            "fleet-observed: traced pair, seed 0 (one sample each, not a gate)"
        )
        assert len(lines) == 2 + len(PER_LAYER)
        (export,) = [line for line in lines if "analysis.export_s (s)" in line]
        assert export.split()[-3:] == ["0.4", "0.1", "-75.0%"]
        (trace,) = [line for line in lines if "analysis.trace_mb (MiB)" in line]
        assert trace.split()[-3:] == ["11.25", "11.25", "+0.0%"]
        assert "trace.overhead" not in text  # only declared metrics


class TestTrees:
    """Both sides run from sibling copies whose paths have one length (a
    run's peak RSS depends on its tree's path); the change copy is the
    checkout as it stands."""

    def _git(self, root, *args):
        subprocess.run(
            ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
             *args],
            cwd=root, check=True, capture_output=True,
        )

    @pytest.fixture()
    def repo(self, tmp_path):
        root = tmp_path / "repo"
        (root / "src").mkdir(parents=True)
        (root / ".gitignore").write_text(".bench_build/\n*.log\n")
        (root / "src" / "kept.py").write_text("base = 1\n")
        (root / "src" / "edited.py").write_text("value = 'committed'\n")
        (root / "gone.py").write_text("deleted in the checkout\n")
        self._git(root, "init", "-q")
        self._git(root, "add", "-A")
        self._git(root, "commit", "-q", "-m", "base")
        (root / "src" / "edited.py").write_text("value = 'uncommitted'\n")
        (root / "src" / "new.py").write_text("untracked = True\n")
        (root / "run.log").write_text("ignored\n")
        (root / "gone.py").unlink()
        return root

    def test_paths_are_siblings_of_one_length(self, repo):
        trees = tree_paths(repo)
        base, change = trees["base"], trees["change"]
        assert base.parent == change.parent == repo / ".bench_build" / "ab"
        assert base != change and len(str(base)) == len(str(change))

    def test_copies_hold_the_base_and_the_checkout_as_it_stands(self, repo):
        trees = make_trees("HEAD", root=repo)
        assert trees == tree_paths(repo)
        base, change = trees["base"], trees["change"]
        assert (base / "src" / "edited.py").read_text() == "value = 'committed'\n"
        assert (base / "gone.py").exists()
        assert not (base / "src" / "new.py").exists()
        assert (change / "src" / "edited.py").read_text() == (
            "value = 'uncommitted'\n"
        )
        assert (change / "src" / "new.py").read_text() == "untracked = True\n"
        assert (change / "src" / "kept.py").read_text() == "base = 1\n"
        assert not (change / "gone.py").exists()
        assert not (change / "run.log").exists()
        assert not (change / ".bench_build").exists()
        assert not (base / ".git").exists() and not (change / ".git").exists()
        # A second A/B starts from fresh copies.
        (change / "stale.py").write_text("left over\n")
        assert not (make_trees("HEAD", root=repo)["change"] / "stale.py").exists()
        remove_trees(trees)
        assert not base.exists() and not change.exists()

    def test_a_bad_base_names_the_revision(self, repo):
        with pytest.raises(ABError, match="no-such-rev"):
            make_trees("no-such-rev", root=repo)

    def test_main_runs_each_side_from_its_copy_then_removes_both(
        self, repo, tmp_path, monkeypatch
    ):
        declared = {
            "command": ["bench"], "run_seconds": 1,
            "workloads": [{"name": "w"}], "end_to_end": [WALL], "per_layer": [],
        }
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
        monkeypatch.setattr(ab, "BENCHMARK", tmp_path / "BENCHMARK.json")
        monkeypatch.setattr(ab, "SEEDS", (0, 1))
        monkeypatch.setattr(ab, "tree_paths", lambda root=repo: tree_paths(root))
        monkeypatch.setattr(ab, "make_trees", lambda base: make_trees(base, repo))
        used = []

        def run_once(command, tree, workload, seed, seconds, trace=0):
            assert (tree / "src" / "kept.py").exists()  # the copy is there
            used.append(tree)
            return last_json(_stdout(1.0)), ""

        monkeypatch.setattr(ab, "run_once", run_once)
        assert ab.main(["HEAD"]) == 0
        trees = tree_paths(repo)
        # Two plain pairs and one traced pair, base first on even pairs.
        assert used == [trees[side] for side in (
            "base", "change", "change", "base", "base", "change",
        )]
        assert not trees["base"].exists() and not trees["change"].exists()
        assert ab.main(["no-such-rev"]) == 2
        assert not trees["base"].exists() and not trees["change"].exists()
