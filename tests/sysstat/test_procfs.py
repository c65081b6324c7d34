"""Tests for the simulated /proc state."""

import copy
import dataclasses

from repro.hadoop import ClusterConfig, HadoopCluster
from repro.sysstat import SimProcFS


def busy_procfs():
    """A scalar node's procfs after 30 s of jobs, with a second NIC."""
    cluster = HadoopCluster(ClusterConfig(num_slaves=3, seed=5))
    cluster.run_until(30.0)
    fs = cluster.procfs("slave01")
    fs.nic("eth1").rx_bytes += 4096.0
    assert fs.processes, "a busy slave must have processes"
    return fs


class TestSimProcFS:
    def test_default_has_eth0(self):
        fs = SimProcFS()
        assert "eth0" in fs.nics

    def test_snapshot_equals_deepcopy(self):
        fs = busy_procfs()
        snap = fs.snapshot()
        assert type(snap) is SimProcFS
        assert dataclasses.asdict(snap) == dataclasses.asdict(copy.deepcopy(fs))

    def test_snapshot_is_deep_copy(self):
        """Later increments, new processes and new NICs never reach it."""
        fs = busy_procfs()
        snap = fs.snapshot()
        frozen = dataclasses.asdict(snap)
        pid = next(iter(fs.processes))
        fs.cpu.user += 10.0
        fs.tables.file_nr += 1.0
        fs.processes[pid].utime += 1.0
        fs.nic("eth0").tx_bytes += 1000.0
        fs.nic("eth1").rx_bytes += 1000.0
        fs.process(99999, "late")
        fs.nic("eth2")
        assert dataclasses.asdict(snap) == frozen

    def test_nic_creates_on_demand(self):
        fs = SimProcFS()
        nic = fs.nic("eth1")
        assert fs.nics["eth1"] is nic

    def test_process_creates_and_reuses(self):
        fs = SimProcFS()
        proc = fs.process(42, "java")
        assert fs.process(42) is proc
        assert proc.name == "java"

    def test_cpu_total_sums_all_modes(self):
        fs = SimProcFS()
        fs.cpu.user = 1.0
        fs.cpu.system = 2.0
        fs.cpu.idle = 3.0
        fs.cpu.iowait = 0.5
        assert fs.cpu.total() == 6.5

    def test_mem_used_derives_from_free(self):
        fs = SimProcFS()
        fs.mem.total_kb = 1000.0
        fs.mem.free_kb = 400.0
        assert fs.mem.used_kb == 600.0

    def test_mem_used_never_negative(self):
        fs = SimProcFS()
        fs.mem.total_kb = 100.0
        fs.mem.free_kb = 200.0
        assert fs.mem.used_kb == 0.0
