"""Tests for the bench speedup regression gate."""

import json
from types import SimpleNamespace

from repro.experiments import check_speedup_gate


def write_baseline(tmp_path, payload):
    path = tmp_path / "BENCH_baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


def report_with(speedup, jobs=0, mode="process-pool"):
    return SimpleNamespace(speedup_vs_serial=speedup, jobs=jobs, mode=mode)


class TestGate:
    def test_passes_above_floor(self, tmp_path):
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.8})
        ok, message = check_speedup_gate(
            report_with(0.75), baseline, slack=0.85
        )
        assert ok
        assert "PASS" in message

    def test_fails_below_floor(self, tmp_path):
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.8})
        ok, message = check_speedup_gate(
            report_with(0.5), baseline, slack=0.85
        )
        assert not ok
        assert "FAIL" in message

    def test_exact_floor_passes(self, tmp_path):
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 1.0})
        ok, _message = check_speedup_gate(
            report_with(0.85), baseline, slack=0.85
        )
        assert ok

    def test_serial_only_report_passes_with_explanation(self, tmp_path):
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.8})
        ok, message = check_speedup_gate(report_with(None), baseline)
        assert ok
        assert "no serial reference" in message

    def test_baseline_without_speedup_passes_with_explanation(self, tmp_path):
        baseline = write_baseline(tmp_path, {"format": "asdf-bench/1"})
        ok, message = check_speedup_gate(report_with(0.9), baseline)
        assert ok
        assert "nothing to gate" in message

    def test_unreadable_baseline_fails(self, tmp_path):
        ok, message = check_speedup_gate(
            report_with(0.9), tmp_path / "missing.json"
        )
        assert not ok
        assert "cannot read baseline" in message

    def test_multicore_floor_fails_a_slower_than_serial_run(
        self, tmp_path, monkeypatch
    ):
        # On real cores, jobs=2 below 1.0x is a regression no baseline
        # slack may excuse.
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.9})
        ok, message = check_speedup_gate(
            report_with(0.95, jobs=2), baseline, slack=0.85
        )
        assert not ok
        assert "must reach 1.00x" in message

    def test_multicore_floor_exempts_single_core_hosts(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.9})
        ok, _message = check_speedup_gate(
            report_with(0.95, jobs=2), baseline, slack=0.85
        )
        assert ok

    def test_multicore_floor_satisfied_passes(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        baseline = write_baseline(tmp_path, {"speedup_vs_serial": 0.9})
        ok, message = check_speedup_gate(
            report_with(1.4, jobs=2, mode="process-pool"), baseline, slack=0.85
        )
        assert ok
        assert "PASS" in message

    def test_committed_baseline_is_gateable(self):
        # The repository's own BENCH_table2.json must keep working as a
        # gate input (this is what CI passes to --gate).
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[2] / "BENCH_table2.json"
        ok, message = check_speedup_gate(report_with(10.0), baseline, slack=0.85)
        assert ok, message
