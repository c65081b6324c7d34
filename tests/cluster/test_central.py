"""Central-daemon integration over real sockets, all in one process.

Three buffered ``ClusterNodeDaemon`` handlers over one shared
``FleetLoad`` run behind real ``RpcServer`` sockets; the central polls
them exactly as it would separate OS processes.  The test plays the
host's sampler thread on a synthetic clock: every round first advances
the fleet one second and buffers one window per node.  (Only the e2e
test spawns actual subprocesses.)
"""

import pytest

from repro.cluster import DaemonRuntime, FleetLoad, write_runtime
from repro.cluster.central import CentralDaemon
from repro.rpc import ClusterNodeDaemon, RpcServer

NODES = ("node-01", "node-02", "node-03")


class NodeHost:
    """The node side: one fleet, a buffered daemon + server per node."""

    def __init__(self, state_dir):
        self.state_dir = state_dir
        self.fleet = FleetLoad(NODES, seed=2)
        self.daemons = {}
        self.servers = {}
        self.now = 1000.0
        for i, name in enumerate(NODES):
            self.serve(name, pid=1000 + i)
        self.sample()  # priming: the first window needs a predecessor

    def serve(self, name, pid):
        """(Re)start ``name`` on a fresh port and publish its runtime."""
        old = self.servers.get(name)
        if old is not None:
            old.stop()
        daemon = ClusterNodeDaemon(name, self.fleet.view(name))
        server = RpcServer(daemon, service=f"sadc@{name}")
        server.start()
        self.daemons[name] = daemon
        self.servers[name] = server
        write_runtime(self.state_dir, DaemonRuntime(
            role="node", name=name, pid=pid, host="127.0.0.1",
            rpc_port=server.address[1], ops_port=1, started_wall=0.0,
        ))

    def sample(self):
        """One sampler-loop iteration, one synthetic second later."""
        self.now += 1.0
        self.fleet.advance_to(self.now)
        for daemon in self.daemons.values():
            daemon.buffer_sample(self.now)

    def stop(self):
        for server in self.servers.values():
            server.stop()


@pytest.fixture()
def nodes(tmp_path):
    host = NodeHost(str(tmp_path))
    yield host
    host.stop()


@pytest.fixture()
def central(tmp_path, nodes):
    daemon = CentralDaemon(str(tmp_path), interval_s=0.05, k_rounds=2)
    yield daemon
    daemon.close()


def run_rounds(central, nodes, count):
    for _ in range(count):
        nodes.sample()
        central.round()


def quiet_node(central):
    """A node the central is not flagging: a busy slave already deviates
    from its peers, so a hog on it would start no new streak."""
    peers = central.stats_obj()["nodes"]
    return next(name for name in NODES if peers[name]["streak"] == 0)


class TestPolling:
    def test_samples_flow_from_every_node(self, central, nodes):
        run_rounds(central, nodes, 4)
        stats = central.stats_obj()
        assert stats["rounds"] == 4
        assert set(stats["nodes"]) == set(NODES)
        for node in NODES:
            entry = stats["nodes"][node]
            assert entry["connected"] is True
            assert entry["samples"] == 4  # one buffered window per round
            assert entry["rpc_bytes_received"] > 0

    def test_busy_readings_and_watermarks(self, central, nodes):
        run_rounds(central, nodes, 4)
        stats = central.stats_obj()
        for node in NODES:
            entry = stats["nodes"][node]
            assert 0.0 <= entry["busy_pct"] <= 100.0
            assert entry["watermark_lag_s"] >= 0.0

    def test_round_spans_carry_trace_ids(self, central, nodes):
        run_rounds(central, nodes, 2)
        rounds = [
            event for event in central.telemetry.tracer.events
            if event.name == "round"
        ]
        assert rounds
        assert all("trace_id" in event.args for event in rounds)
        calls = [
            event for event in central.telemetry.tracer.events
            if event.name.startswith("rpc.call:")
        ]
        trace_ids = {event.args.get("trace_id") for event in calls}
        assert trace_ids <= {event.args["trace_id"] for event in rounds}


class TestDetection:
    def test_cpuhog_indicts_the_loud_node(self, central, nodes):
        run_rounds(central, nodes, 3)
        assert central.stats_obj()["alarms_total"] == 0
        target = quiet_node(central)
        assert central.enqueue({
            "action": "inject", "node": target,
            "kind": "cpuhog", "intensity": 1.0,
        })
        run_rounds(central, nodes, 8)
        stats = central.stats_obj()
        assert stats["alarms_total"] >= 1
        alarm = stats["alarms"][0]
        assert alarm["node"] == target
        assert alarm["source"] == "peer-deviation"
        assert alarm["wall_latency_s"] >= 0.0
        assert stats["alarm_wall_latency_s"]["count"] >= 1
        assert stats["alarm_wall_latency_s"]["p50"] >= 0.0

    def test_clear_resets_the_streak(self, central, nodes):
        run_rounds(central, nodes, 3)
        target = quiet_node(central)
        central.enqueue({
            "action": "inject", "node": target,
            "kind": "cpuhog", "intensity": 1.0,
        })
        run_rounds(central, nodes, 6)
        assert central.stats_obj()["nodes"][target]["streak"] > 0
        central.enqueue({"action": "clear", "node": target})
        run_rounds(central, nodes, 6)
        assert central.stats_obj()["nodes"][target]["streak"] == 0


class TestRespawnAdoption:
    def test_new_address_is_adopted_and_counted(self, central, nodes):
        run_rounds(central, nodes, 3)
        assert central.stats_obj()["nodes"]["node-03"]["reconnects"] == 0

        # "Respawn" node-03: a fresh daemon and server on a new port,
        # republished under a new pid -- what the launcher does after a
        # SIGKILL.
        nodes.serve("node-03", pid=9999)

        run_rounds(central, nodes, 3)
        entry = central.stats_obj()["nodes"]["node-03"]
        assert entry["connected"] is True
        assert entry["reconnects"] >= 1
        assert central.stats_obj()["reconnects"] >= 1

    def test_mark_resets_throughput_window(self, central, nodes):
        run_rounds(central, nodes, 3)
        central.enqueue({"action": "mark"})
        run_rounds(central, nodes, 1)
        stats = central.stats_obj()
        assert stats["samples_since_mark"] <= len(NODES)
        assert stats["samples_total"] >= stats["samples_since_mark"]
