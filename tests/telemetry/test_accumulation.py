"""``orpheus stats`` across invocations: a leftover ``telemetry.json``
from an older release is never read, a torn journal tail is skipped,
and the p99/Prometheus rendering of histogram summaries."""

from __future__ import annotations

import json

from repro import telemetry
from repro.cli import main
from repro.observe.journal import Journal
from repro.telemetry.registry import Histogram
from repro.telemetry.snapshot import (
    Snapshot,
    _prom_label_name,
    _prom_label_value,
    _prom_name,
)


def run(root, *args) -> int:
    return main(["--root", str(root), *args])


def drive(workspace) -> None:
    (workspace / "data.csv").write_text("key,value\nk1,1\nk2,2\n")
    (workspace / "schema.csv").write_text(
        "key,text\nvalue,integer\nprimary_key,key\n"
    )
    assert run(
        workspace,
        "init", "-d", "d",
        "-f", str(workspace / "data.csv"),
        "-s", str(workspace / "schema.csv"),
    ) == 0


def stats(root, capsys) -> dict:
    capsys.readouterr()
    assert run(root, "stats", "--json") == 0
    return json.loads(capsys.readouterr().out)


class TestCorruptRecovery:
    def test_corrupt_file_loads_as_empty(self, tmp_path, capsys):
        """A corrupt ``telemetry.json`` left by an older release is
        never read: the history is empty and the file stays as it was."""
        leftover = tmp_path / ".orpheus" / "telemetry.json"
        leftover.parent.mkdir(parents=True)
        leftover.write_text("definitely { not json")
        assert stats(tmp_path, capsys) == Snapshot().to_dict()
        assert leftover.read_text() == "definitely { not json"

    def test_truncated_file_loads_as_empty(self, tmp_path, capsys):
        """A journal whose only op record is torn mid-line holds no
        finished command."""
        drive(tmp_path)
        path = Journal(str(tmp_path)).path
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # torn mid-write
        assert stats(tmp_path, capsys)["spans"] == {}

    def test_next_command_rebuilds_a_valid_history(self, tmp_path, capsys):
        drive(tmp_path)
        leftover = tmp_path / ".orpheus" / "telemetry.json"
        leftover.write_text("{not json")
        assert run(
            tmp_path, "checkout", "-d", "d", "-v", "1",
            "-f", str(tmp_path / "out.csv"),
        ) == 0
        data = stats(tmp_path, capsys)
        assert data["spans"]["cli.init"]["count"] == 1
        assert data["spans"]["cli.checkout"]["count"] == 1
        assert leftover.read_text() == "{not json"


class TestP99:
    def test_histogram_summary_has_p99(self):
        h = Histogram("x")
        for i in range(100):
            h.add(float(i))
        summary = h.summary()
        assert summary["p99"] == 99.0
        assert summary["p50"] == 50.0

    def test_merge_recomputes_p99(self, tmp_path, capsys):
        """The p99 of a command is recomputed over every invocation's
        journaled duration."""
        journal = Journal(str(tmp_path))
        for i in range(100):
            journal.append({
                "trace_id": f"{i:016x}", "command": "diff", "status": "ok",
                "ts": float(i), "duration_s": float(i),
            })
        seconds = stats(tmp_path, capsys)["spans"]["cli.diff"]["seconds"]
        assert (seconds["count"], seconds["p99"]) == (100, 99.0)

    def test_text_render_includes_p99_column(self):
        telemetry.enable()
        telemetry.reset()
        telemetry.observe("h", 1.0)
        text = telemetry.snapshot().render_text()
        assert "p99" in text

    def test_old_summary_without_p99_still_renders(self):
        legacy = {
            "count": 1,
            "total": 2.0,
            "min": 2.0,
            "max": 2.0,
            "p50": 2.0,
            "p95": 2.0,
            "values": [2.0],
            "stride": 1,
        }
        snapshot = Snapshot(
            histograms={"h": dict(legacy)},
            spans={"s": {"count": 1, "errors": 0, "seconds": dict(legacy)}},
        )
        text = snapshot.render_text()
        assert "h" in text and "s" in text

    def test_prometheus_exports_p99_quantile(self):
        telemetry.enable()
        telemetry.reset()
        telemetry.observe("lat", 0.5)
        text = telemetry.snapshot().render_prometheus()
        assert 'repro_lat{quantile="0.99"} 0.5' in text


class TestPrometheusHardening:
    def test_metric_names_collapse_to_exposition_charset(self):
        assert _prom_name("a.b-c d/e") == "repro_a_b_c_d_e"
        assert _prom_name("0weird") == "repro_0weird"  # prefix keeps it legal

    def test_label_name_sanitized(self):
        assert _prom_label_name("a-b.c") == "a_b_c"
        assert _prom_label_name("9lives") == "_9lives"
        assert _prom_label_name("") == "_"

    def test_label_value_escaped(self):
        assert _prom_label_value('say "hi"\n') == r"say \"hi\"\n"
        assert _prom_label_value("back\\slash") == r"back\\slash"

    def test_hostile_metric_name_renders_cleanly(self):
        telemetry.enable()
        telemetry.reset()
        telemetry.count('rows{evil="1"}\ninjected 42', 7)
        text = telemetry.snapshot().render_prometheus()
        for line in text.splitlines():
            assert "\n" not in line
            name = line.split("{")[0].split(" ")[0]
            if name.startswith("#"):
                continue
            assert all(
                c.isalnum() or c in "_:" for c in name
            ), f"illegal metric name in {line!r}"

    def test_failed_seconds_exported(self, tmp_path, capsys):
        drive(tmp_path)
        assert run(
            tmp_path, "checkout", "-d", "missing", "-v", "1",
            "-f", str(tmp_path / "out.csv"),
        ) == 1
        capsys.readouterr()
        assert run(tmp_path, "stats", "--prometheus") == 0
        text = capsys.readouterr().out
        assert "repro_span_cli_checkout_failed_seconds_count 1" in text
        assert "repro_commands_failed 1" in text
