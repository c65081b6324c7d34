"""Parity and behavior tests for the struct-of-arrays simulator core.

The vectorized engine's contract is *bit parity*: a ``vec`` cluster
stepped through the same jobs, faults and packet loss as a ``scalar``
cluster must expose byte-identical procfs state on every node, every
tick.  These tests pin that contract at small fleet sizes; the
``bench scale --check-parity`` run asserts it at N=50 and N=200.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.experiments.scale import tick_parity_mismatches
from repro.hadoop import ClusterConfig, HadoopCluster
from repro.sim.vec import FleetState, VecProcFS, VecSimNode
from repro.sysstat.procfs import CpuTicks, ProcessStat, SimProcFS


def vec_cluster(num_slaves=4, seed=11):
    return HadoopCluster(
        ClusterConfig(num_slaves=num_slaves, seed=seed, engine="vec")
    )


def busy_vec_procfs():
    """A vec node's procfs after 30 s of jobs, with a second NIC."""
    cluster = vec_cluster()
    cluster.run_until(30.0)
    procfs = cluster.procfs("slave01")
    procfs.nic("eth1").rx_bytes += 4096.0
    assert procfs.processes, "a busy slave must have processes"
    return procfs


class TestEngineSelection:
    def test_scalar_default_has_no_fleet(self):
        cluster = HadoopCluster(ClusterConfig(num_slaves=3, seed=1))
        assert cluster.fleet is None

    def test_vec_builds_fleet_backed_nodes(self):
        cluster = vec_cluster()
        assert isinstance(cluster.fleet, FleetState)
        # Master + slaves all live in the same arrays.
        assert len(cluster.fleet.names) == 5
        for node in cluster.nodes.values():
            assert isinstance(node, VecSimNode)
            assert isinstance(node.procfs, VecProcFS)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            HadoopCluster(
                ClusterConfig(num_slaves=3, seed=1, engine="simd")
            )


class TestViews:
    def test_views_read_fleet_arrays(self):
        cluster = vec_cluster()
        cluster.run_until(5.0)
        node = cluster.nodes["slave01"]
        i = cluster.fleet.index["slave01"]
        assert node.procfs.cpu.idle == cluster.fleet.a["cpu_idle"][i]
        assert node.procfs.mem.free_kb == cluster.fleet.a["mem_free_kb"][i]

    def test_snapshot_materializes_plain_dataclasses(self):
        """Snapshots must be detached copies, like the scalar engine's."""
        cluster = vec_cluster()
        cluster.run_until(3.0)
        procfs = cluster.procfs("slave01")
        snap = procfs.snapshot()
        assert type(snap) is SimProcFS
        assert type(snap.cpu) is CpuTicks
        before = snap.cpu.idle
        cluster.run_until(6.0)
        assert snap.cpu.idle == before  # detached from the live arrays
        assert procfs.cpu.idle != before

    def test_snapshot_copies_processes(self):
        cluster = vec_cluster()
        cluster.run_until(3.0)
        snap = cluster.procfs("slave01").snapshot()
        for proc in snap.processes.values():
            assert type(proc) is ProcessStat

    def test_snapshot_equals_deepcopy_of_scalar_twin(self):
        """Equal to a deepcopy of the scalar engine's procfs, same tick."""
        scalar = HadoopCluster(ClusterConfig(num_slaves=4, seed=11))
        vec = vec_cluster()
        for cluster in (scalar, vec):
            cluster.run_until(30.0)
            cluster.procfs("slave01").nic("eth1").rx_bytes += 4096.0
        expected = copy.deepcopy(scalar.procfs("slave01"))
        assert expected.processes
        snap = vec.procfs("slave01").snapshot()
        assert dataclasses.asdict(snap) == dataclasses.asdict(expected)

    def test_snapshot_detached_from_live_state(self):
        procfs = busy_vec_procfs()
        snap = procfs.snapshot()
        frozen = dataclasses.asdict(snap)
        pid = next(iter(procfs.processes))
        procfs.cpu.user += 10.0
        procfs.tables.file_nr += 1.0
        procfs.processes[pid].utime += 1.0
        procfs.nic("eth0").tx_bytes += 1000.0
        procfs.nic("eth1").rx_bytes += 1000.0
        procfs.process(99999, "late")
        assert dataclasses.asdict(snap) == frozen

    def test_node_end_tick_is_fleet_only(self):
        """Per-node end_tick is replaced by FleetState.end_tick_all."""
        cluster = vec_cluster()
        with pytest.raises(NotImplementedError):
            cluster.nodes["slave01"].end_tick(1.0)


class TestTickParity:
    def test_bit_parity_under_jobs_faults_and_loss(self):
        """Every node's full snapshot matches the scalar engine exactly,
        tick for tick, with jobs running, CPU/disk hogs armed and packet
        loss injected."""
        assert tick_parity_mismatches(8, ticks=60, seed=11) == []

    def test_bit_parity_second_seed(self):
        assert tick_parity_mismatches(6, ticks=40, seed=77) == []


class TestFleetAccounting:
    def test_idle_fleet_accumulators_reset_each_tick(self):
        cluster = vec_cluster()
        cluster.run_until(10.0)
        fleet = cluster.fleet
        assert (fleet.acc_cpu_user == 0.0).all()
        assert (fleet.acc_net_tx == 0.0).all()

    def test_loadavg_decays_like_scalar(self):
        scalar = HadoopCluster(ClusterConfig(num_slaves=4, seed=5))
        vec = HadoopCluster(
            ClusterConfig(num_slaves=4, seed=5, engine="vec")
        )
        scalar.run_until(30.0)
        vec.run_until(30.0)
        for node in scalar.nodes:
            a = scalar.procfs(node).loadavg
            b = vec.procfs(node).loadavg
            assert (a.one, a.five, a.fifteen) == (b.one, b.five, b.fifteen)
