"""The observability CLI: ``explain`` on bad input, and the two-stage
``check`` that backs ``make obs-check``."""

import contextlib
import io

import pytest

from repro.obs.cli import main

ARTIFACTS = [
    "fleet.bundle.json",
    "fleet.perfetto.json",
    "fleet.prom",
    "fleet.slo.txt",
    "fleet.timelines.txt",
    "metrics.prom",
    "trace.json",
]


class TestExplainErrors:
    def _explain(self, path, capsys):
        status = main(["explain", str(path)])
        return status, capsys.readouterr().err

    def test_directory(self, tmp_path, capsys):
        status, err = self._explain(tmp_path, capsys)
        assert status == 2
        assert err.startswith(f"error: {tmp_path}: cannot read")

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_bytes(b"\xff\xfe[]")
        status, err = self._explain(path, capsys)
        assert status == 2
        assert err.startswith(f"error: {path}: not UTF-8 JSON")

    def test_json_array(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text("[]", encoding="utf-8")
        status, err = self._explain(path, capsys)
        assert status == 2
        assert err == (
            f"error: {path}: malformed telemetry bundle: expected a JSON "
            "object, got list\n"
        )


class TestCheck:
    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        """One plain ``check --out`` run: (exit status, stdout, artifacts)."""
        return _run_check(tmp_path_factory.mktemp("plain"), sanitize=False)

    def test_both_stages_pass_and_write_every_artifact(self, plain):
        status, out, artifacts = plain
        assert status == 0
        assert sorted(artifacts) == ARTIFACTS
        assert "worst deviation 0.00e+00 s" in out
        assert out.index("critical path:") < out.index("fleet obs-check")
        assert out.rstrip().endswith("obs check: ok")

    def test_sanitized_run_writes_the_same_bytes(self, plain, tmp_path):
        status, _, artifacts = _run_check(tmp_path, sanitize=True)
        assert status == 0
        for name in ARTIFACTS:
            assert artifacts[name] == plain[2][name], name


def _run_check(out, sanitize):
    """``repro.obs check --out OUT`` in-process, with the runtime
    sanitizer on or off for every simulator it builds."""
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(
        printed
    ):
        if sanitize:
            patch.setenv("REPRO_SANITIZE", "1")
        else:
            patch.delenv("REPRO_SANITIZE", raising=False)
        status = main(["check", "--out", str(out)])
    artifacts = {path.name: path.read_bytes() for path in out.iterdir()}
    return status, printed.getvalue(), artifacts
