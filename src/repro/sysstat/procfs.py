"""A simulated ``/proc`` pseudo-filesystem for one node.

Real sysstat derives its statistics from cumulative kernel counters in
``/proc`` (``/proc/stat``, ``/proc/diskstats``, ``/proc/net/dev``,
``/proc/vmstat``, ...) plus instantaneous gauges (``/proc/meminfo``,
``/proc/loadavg``).  :class:`SimProcFS` holds exactly that shape for a
simulated node: the cluster simulator *increments counters* as activity
happens, and :class:`repro.sysstat.sadc.Sadc` differences successive
snapshots into rates -- the same code path sysstat uses against a real
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, TypeVar

_Leaf = TypeVar("_Leaf")


def copy_leaf(leaf: _Leaf) -> _Leaf:
    """Detached copy of a scalar-only procfs dataclass.

    Every leaf (``CpuTicks`` ... ``KernelTables``, ``NicCounters``,
    ``ProcessStat``) holds only immutable scalars, so copying its field
    dict detaches it as fully as ``copy.deepcopy`` does, at a fraction
    of the cost.
    """
    clone = object.__new__(type(leaf))
    clone.__dict__.update(leaf.__dict__)
    return clone


@dataclass
class CpuTicks:
    """Cumulative CPU time per mode, in core-seconds (``/proc/stat``)."""

    user: float = 0.0
    nice: float = 0.0
    system: float = 0.0
    iowait: float = 0.0
    steal: float = 0.0
    idle: float = 0.0
    irq: float = 0.0
    softirq: float = 0.0

    def total(self) -> float:
        return (
            self.user + self.nice + self.system + self.iowait
            + self.steal + self.idle + self.irq + self.softirq
        )


@dataclass
class DiskCounters:
    """Cumulative block-device counters (``/proc/diskstats``)."""

    reads_completed: float = 0.0
    writes_completed: float = 0.0
    sectors_read: float = 0.0       # 512-byte sectors
    sectors_written: float = 0.0
    io_time_ms: float = 0.0          # time the device was busy
    weighted_io_time_ms: float = 0.0  # busy time x queue depth


@dataclass
class VmCounters:
    """Cumulative paging/swapping counters (``/proc/vmstat``)."""

    pgpgin_kb: float = 0.0
    pgpgout_kb: float = 0.0
    pswpin: float = 0.0
    pswpout: float = 0.0
    pgfault: float = 0.0
    pgmajfault: float = 0.0
    pgfree: float = 0.0
    pgscank: float = 0.0


@dataclass
class NicCounters:
    """Cumulative per-interface counters (``/proc/net/dev``)."""

    rx_bytes: float = 0.0
    tx_bytes: float = 0.0
    rx_packets: float = 0.0
    tx_packets: float = 0.0
    rx_errs: float = 0.0
    tx_errs: float = 0.0
    collisions: float = 0.0
    rx_drop: float = 0.0
    tx_drop: float = 0.0
    rx_fifo: float = 0.0
    tx_fifo: float = 0.0
    rx_frame: float = 0.0
    tx_carrier: float = 0.0
    rx_compressed: float = 0.0
    tx_compressed: float = 0.0
    multicast: float = 0.0
    #: Link speed gauge, Mbit/s (from ethtool / sysfs on a real system).
    speed_mbps: float = 1000.0


@dataclass
class KernelStat:
    """Cumulative system counters from ``/proc/stat``."""

    ctxt: float = 0.0
    intr: float = 0.0
    processes: float = 0.0  # forks


@dataclass
class MemInfo:
    """Instantaneous memory gauges in kB (``/proc/meminfo``)."""

    total_kb: float = 8 * 1024 * 1024
    free_kb: float = 8 * 1024 * 1024
    buffers_kb: float = 0.0
    cached_kb: float = 0.0
    swap_total_kb: float = 2 * 1024 * 1024
    swap_free_kb: float = 2 * 1024 * 1024
    committed_kb: float = 0.0
    active_kb: float = 0.0

    @property
    def used_kb(self) -> float:
        return max(0.0, self.total_kb - self.free_kb)


@dataclass
class LoadAvg:
    """Instantaneous scheduler gauges (``/proc/loadavg``)."""

    one: float = 0.0
    five: float = 0.0
    fifteen: float = 0.0
    runq_sz: float = 0.0
    plist_sz: float = 80.0


@dataclass
class SockStat:
    """Instantaneous socket gauges (``/proc/net/sockstat``)."""

    totsck: float = 40.0
    tcpsck: float = 12.0
    udpsck: float = 4.0
    rawsck: float = 0.0
    ip_frag: float = 0.0
    tcp_tw: float = 0.0


@dataclass
class TcpCounters:
    """Cumulative TCP counters (``/proc/net/snmp``)."""

    active_opens: float = 0.0
    passive_opens: float = 0.0
    in_segs: float = 0.0
    out_segs: float = 0.0


@dataclass
class KernelTables:
    """Instantaneous kernel-table gauges (``/proc/sys/fs``)."""

    dentunusd: float = 15000.0
    file_nr: float = 1200.0
    inode_nr: float = 20000.0
    pty_nr: float = 2.0
    super_nr: float = 20.0


@dataclass
class ProcessStat:
    """Per-process counters and gauges (``/proc/<pid>/stat``, ``io``)."""

    pid: int = 0
    name: str = ""
    utime: float = 0.0       # cumulative user CPU seconds
    stime: float = 0.0       # cumulative system CPU seconds
    minflt: float = 0.0
    majflt: float = 0.0
    read_kb: float = 0.0     # cumulative kB read from storage
    write_kb: float = 0.0
    ccwr_kb: float = 0.0     # cancelled write-backs
    cswch: float = 0.0       # voluntary context switches
    nvcswch: float = 0.0     # involuntary context switches
    iodelay_ticks: float = 0.0
    vsz_kb: float = 0.0
    rss_kb: float = 0.0
    stack_kb: float = 132.0
    stack_ref_kb: float = 12.0
    threads: float = 1.0
    fds: float = 8.0
    prio: float = 20.0


@dataclass
class SimProcFS:
    """The complete simulated ``/proc`` state of one node."""

    num_cpus: int = 4
    cpu: CpuTicks = field(default_factory=CpuTicks)
    disk: DiskCounters = field(default_factory=DiskCounters)
    vm: VmCounters = field(default_factory=VmCounters)
    stat: KernelStat = field(default_factory=KernelStat)
    mem: MemInfo = field(default_factory=MemInfo)
    loadavg: LoadAvg = field(default_factory=LoadAvg)
    sockstat: SockStat = field(default_factory=SockStat)
    tcp: TcpCounters = field(default_factory=TcpCounters)
    tables: KernelTables = field(default_factory=KernelTables)
    nics: Dict[str, NicCounters] = field(default_factory=dict)
    processes: Dict[int, ProcessStat] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.nics:
            self.nics["eth0"] = NicCounters()

    def snapshot(self) -> "SimProcFS":
        """Detached copy of the current state, for rate differencing.

        A structural copy: each leaf is copied with :func:`copy_leaf`
        and ``nics``/``processes`` are fresh dicts, so later increments
        to this procfs never reach the snapshot.
        """
        snap = copy_leaf(self)
        state = snap.__dict__
        for name in _LEAF_FIELDS:
            state[name] = copy_leaf(state[name])
        snap.nics = {name: copy_leaf(nic) for name, nic in self.nics.items()}
        snap.processes = {
            pid: copy_leaf(proc) for pid, proc in self.processes.items()
        }
        return snap

    def nic(self, name: str = "eth0") -> NicCounters:
        return self.nics.setdefault(name, NicCounters())

    def process(self, pid: int, name: str = "") -> ProcessStat:
        proc = self.processes.get(pid)
        if proc is None:
            proc = ProcessStat(pid=pid, name=name)
            self.processes[pid] = proc
        return proc


#: The single-object leaves of :class:`SimProcFS` (everything but the
#: ``num_cpus`` scalar and the ``nics``/``processes`` dicts).
_LEAF_FIELDS = tuple(
    f.name for f in fields(SimProcFS)
    if f.name not in ("num_cpus", "nics", "processes")
)
