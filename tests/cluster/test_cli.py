"""CLI wiring for the cluster subcommands."""

from repro.cli import _render_cluster_top, build_parser, main


class TestParser:
    def test_cluster_subcommands_registered(self):
        parser = build_parser()
        cases = [
            (["cluster", "up", "--nodes", "5"], "cmd_cluster_up"),
            (["cluster", "node", "--names", "n1"], "cmd_cluster_node"),
            (["cluster", "central", "--interval", "0.1"],
             "cmd_cluster_central"),
            (["cluster", "drive", "--out", "x"], "cmd_cluster_drive"),
            (["cluster", "top", "--once"], "cmd_cluster_top"),
        ]
        for argv, handler_name in cases:
            args = parser.parse_args(argv)
            assert args.handler.__name__ == handler_name

    def test_drive_fault_kind_restricted(self):
        parser = build_parser()
        args = parser.parse_args(
            ["cluster", "drive", "--fault-kind", "diskhog"]
        )
        assert args.fault_kind == "diskhog"


class TestRenderClusterTop:
    STATS = {
        "rounds": 12,
        "samples_total": 30,
        "samples_per_sec": 11.5,
        "alarms_total": 1,
        "backpressure": {"rounds_late": 0},
        "alarm_wall_latency_s": {
            "count": 1, "p50": 0.002, "p90": 0.002, "p99": 0.002,
        },
        "nodes": {
            "node-01": {
                "connected": True, "busy_pct": 17.3, "streak": 0,
                "samples": 10, "watermark_lag_s": 0.004, "reconnects": 0,
            },
            "node-02": {
                "connected": False, "busy_pct": None, "streak": 0,
                "samples": 4, "watermark_lag_s": None, "reconnects": 1,
            },
        },
        "alarms": [{
            "node": "node-01", "detail": "busy 80% vs median 17%",
            "wall_latency_s": 0.002,
        }],
    }
    CLUSTER = {
        "daemons": [
            {"name": "central", "role": "central", "pid": 1, "alive": True},
            {"name": "node-01", "role": "node", "pid": 2, "alive": True},
            {"name": "node-02", "role": "node", "pid": 3, "alive": False},
        ],
    }

    def test_rows_and_header(self):
        frame = _render_cluster_top(self.STATS, self.CLUSTER)
        assert "rounds 12" in frame
        assert "11.5/s" in frame
        assert "node-01" in frame and "node-02" in frame
        assert "central" not in frame.splitlines()[-1]  # nodes only in table

    def test_missing_readings_render_dashes(self):
        frame = _render_cluster_top(self.STATS, self.CLUSTER)
        node02 = next(
            line for line in frame.splitlines()
            if line.startswith("node-02")
        )
        assert " - " in node02 or node02.rstrip().count(" -") >= 1

    def test_alarm_tail_rendered(self):
        frame = _render_cluster_top(self.STATS, self.CLUSTER)
        assert "ALARM node-01" in frame

    def test_no_ansi_escapes(self):
        # The cluster dashboard is plain text; ANSI would garble CI logs.
        assert "\x1b[" not in _render_cluster_top(self.STATS, self.CLUSTER)


class TestClusterTopCommand:
    def test_missing_central_is_an_error(self, tmp_path, capsys):
        code = main([
            "cluster", "top", "--dir", str(tmp_path), "--once",
        ])
        assert code == 2
        assert "no live central daemon" in capsys.readouterr().err
