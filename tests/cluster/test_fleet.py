"""The shared vectorized fleet behind packed node-host processes."""

import pytest

from repro.cluster import FleetLoad
from repro.cluster.load import FLEET_CPUHOG_CORES_FRAC, FLEET_TICK_S
from repro.rpc import ClusterNodeDaemon
from repro.sysstat.metrics import NODE_METRICS
from repro.sysstat.sadc import Sadc

NAMES = ["node-01", "node-02", "node-03"]


def _fleet(**kwargs):
    kwargs.setdefault("seed", 2)
    return FleetLoad(NAMES, **kwargs)


class TestFleetClock:
    def test_advance_is_idempotent_per_wall_time(self):
        fleet = _fleet()
        fleet.advance_to(1000.0)
        fleet.advance_to(1003.0)
        ticks = fleet.ticks
        fleet.advance_to(1003.0)  # same wall time: no extra ticks
        assert fleet.ticks == ticks

    def test_ticks_track_wall_in_fixed_quanta(self):
        fleet = _fleet()
        fleet.advance_to(1000.0)  # origin
        fleet.advance_to(1002.0)
        assert fleet.cluster.time == pytest.approx(2.0)
        assert fleet.ticks == int(2.0 / FLEET_TICK_S)

    def test_long_pause_rebases_instead_of_replaying(self):
        fleet = _fleet()
        fleet.advance_to(1000.0)
        fleet.advance_to(1001.0)
        fleet.advance_to(1000.0 + 3600.0)  # an hour-long SIGSTOP
        # One capped advance must not replay the whole gap...
        from repro.cluster.load import MAX_TICKS_PER_ADVANCE

        assert fleet.ticks <= MAX_TICKS_PER_ADVANCE + 2
        # ...and the next regular advance resumes near the new wall time.
        ticks = fleet.ticks
        fleet.advance_to(1000.0 + 3600.0 + 1.0)
        assert fleet.ticks - ticks <= 3

    def test_sample_time_is_quantized_wall(self):
        fleet = _fleet()
        fleet.advance_to(1000.0)
        fleet.advance_to(1001.2)
        # Sim advanced 1.0s (two 0.5s ticks): sample clock lags wall.
        assert fleet.sample_time() == pytest.approx(1001.0)

    def test_views_share_one_cluster(self):
        fleet = _fleet()
        views = [fleet.view(name) for name in NAMES]
        assert len({id(view._fleet.cluster) for view in views}) == 1
        assert views[0].procfs is not views[1].procfs


class TestFleetTelemetry:
    def test_sadc_over_fleet_yields_full_catalog(self):
        fleet = _fleet()
        view = fleet.view("node-01")
        sadc = Sadc(view.procfs)
        view.advance_to(1000.0)
        sadc.collect(fleet.sample_time())
        view.advance_to(1004.0)
        sample = sadc.collect(fleet.sample_time())
        assert sample is not None
        assert set(sample.node) == set(NODE_METRICS)

    def test_workload_produces_nonidle_nodes(self):
        fleet = _fleet()
        view = fleet.view("node-01")
        sadc = Sadc(view.procfs)
        view.advance_to(1000.0)
        sadc.collect(fleet.sample_time())
        view.advance_to(1010.0)
        sample = sadc.collect(fleet.sample_time())
        assert sample.node["cpu_idle_pct"] < 100.0

    def test_cpuhog_deviates_target_from_peers(self):
        fleet = _fleet()
        views = {name: fleet.view(name) for name in NAMES}
        sadcs = {name: Sadc(view.procfs) for name, view in views.items()}
        fleet.advance_to(1000.0)
        for sadc in sadcs.values():
            sadc.collect(fleet.sample_time())
        fleet.advance_to(1005.0)
        baseline = {
            name: sadc.collect(fleet.sample_time()).node["cpu_idle_pct"]
            for name, sadc in sadcs.items()
        }
        views["node-01"].inject("cpuhog", 1.0)
        fleet.advance_to(1012.0)
        after = {
            name: sadc.collect(fleet.sample_time()).node["cpu_idle_pct"]
            for name, sadc in sadcs.items()
        }
        assert after["node-01"] < baseline["node-01"] - 30.0
        assert after["node-02"] > 5.0  # peers keep some idle headroom

    def test_clear_removes_the_hog(self):
        fleet = _fleet()
        view = fleet.view("node-01")
        view.advance_to(1000.0)
        view.inject("cpuhog", 1.0)
        assert view.active_fault == "cpuhog"
        assert any(
            load.name == "cpuhog" for load in fleet.cluster.external_loads
        )
        view.clear()
        assert view.active_fault is None
        assert not any(
            load.name == "cpuhog" for load in fleet.cluster.external_loads
        )

    def test_intensity_clamped(self):
        fleet = _fleet()
        view = fleet.view("node-01")
        view.advance_to(1000.0)
        cores = fleet.cluster.config.node_spec.cpu_cores
        view.inject("cpuhog", intensity=7.5)
        (hog,) = fleet.cluster.external_loads
        assert hog.cpu_cores == pytest.approx(cores * FLEET_CPUHOG_CORES_FRAC)
        view.inject("diskhog", intensity=-2.0)
        (hog,) = fleet.cluster.external_loads
        assert hog.disk_write_bytes_s == 0.0

    def test_diskhog_raises_sector_rate(self):
        fleet = _fleet(workload=False)
        quiet, loud = fleet.view("node-01"), fleet.view("node-02")
        fleet.advance_to(1000.0)
        loud.inject("diskhog", intensity=1.0)
        fleet.advance_to(1010.0)
        assert loud.procfs.disk.sectors_written > \
            quiet.procfs.disk.sectors_written * 10

    def test_unknown_fault_rejected(self):
        view = _fleet().view("node-01")
        with pytest.raises(ValueError, match="unknown load fault"):
            view.inject("packetloss")


class TestBufferedDaemonOverFleet:
    def _primed(self, fleet, daemon, start=1000.0, seconds=4):
        fleet.advance_to(start)
        daemon.buffer_sample(start)
        for i in range(1, seconds + 1):
            now = start + float(i)
            fleet.advance_to(now)
            daemon.buffer_sample(now)

    def test_buffer_then_poll_many_drains_batch(self):
        fleet = _fleet()
        daemon = ClusterNodeDaemon("node-01", fleet.view("node-01"))
        self._primed(fleet, daemon)
        batch = daemon.rpc_poll_many(1004.0, max_windows=32)
        assert batch["node_name"] == "node-01"
        assert len(batch["windows"]) == 4  # priming call emits nothing
        assert daemon.rpc_poll_many(1004.0)["windows"] == []

    def test_zero_tick_interval_emits_no_window(self):
        fleet = _fleet()
        daemon = ClusterNodeDaemon("node-01", fleet.view("node-01"))
        self._primed(fleet, daemon)
        daemon.rpc_poll_many(1004.0)
        # A sampler wakeup inside the same tick must not produce a
        # zero-delta window (it would decode as 0% idle = 100% busy).
        assert daemon.buffer_sample(1004.1) is False
        assert daemon.rpc_poll_many(1004.2)["windows"] == []

    def test_windows_carry_sane_idle(self):
        fleet = _fleet()
        daemon = ClusterNodeDaemon("node-01", fleet.view("node-01"))
        self._primed(fleet, daemon, seconds=6)
        batch = daemon.rpc_poll_many(1006.0)
        idles = [w["node"]["cpu_idle_pct"] for w in batch["windows"]]
        assert idles and all(0.0 < idle <= 100.0 for idle in idles)

    def test_buffer_overflow_drops_oldest_and_counts(self):
        from repro.rpc.daemons import MAX_BUFFERED_WINDOWS

        fleet = _fleet(workload=False)
        daemon = ClusterNodeDaemon("node-01", fleet.view("node-01"))
        start = 1000.0
        fleet.advance_to(start)
        daemon.buffer_sample(start)
        for i in range(1, MAX_BUFFERED_WINDOWS + 10):
            now = start + float(i)
            fleet.advance_to(now)
            daemon.buffer_sample(now)
        assert len(daemon._windows) == MAX_BUFFERED_WINDOWS
        assert daemon.windows_dropped > 0

    def test_metric_names_catalog_matches_windows(self):
        fleet = _fleet()
        daemon = ClusterNodeDaemon("node-01", fleet.view("node-01"))
        self._primed(fleet, daemon)
        window = daemon.rpc_poll_many(1004.0)["windows"][0]
        assert tuple(window["node"]) == daemon.metric_names
