"""A simulated cluster node: resource accounting into ``/proc`` counters.

Each tick the cluster layer reports what happened on the node -- CPU time
consumed per process, disk bytes moved, network traffic, forks -- through
the ``account_*`` methods.  :meth:`SimNode.end_tick` folds those
accumulators, plus a small amount of seeded background-OS noise, into the
node's :class:`repro.sysstat.SimProcFS`, keeping every derived metric
(context switches, interrupts, page cache, load averages, TCP segments)
consistent with the primary activity.  The black-box ``sadc`` collector
then sees a coherent, realistically correlated ``/proc``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..sysstat.procfs import SimProcFS
from .network import PACKET_BYTES
from .noise import (
    GAMMA_SYS,
    GAMMA_USER,
    NORMAL_CTXT,
    NORMAL_INTR,
    NORMAL_PGFAULT,
    POISSON_FORKS,
    POISSON_MCAST,
    POISSON_PGMAJ,
    TickNoise,
)
from .resources import NodeSpec

#: Typical bytes per disk I/O request (used to derive tps from bytes).
DISK_IO_BYTES = 128.0 * 1024.0

#: Load-average exponential decay constants, seconds.
_LOAD_TAU = (60.0, 300.0, 900.0)


class SimNode:
    """One node's resources, process table and ``/proc`` counters."""

    def __init__(self, name: str, spec: NodeSpec, seed: int) -> None:
        self.name = name
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.noise = TickNoise(self.rng)
        self.procfs = SimProcFS(num_cpus=int(round(spec.cpu_cores)))
        self.procfs.mem.total_kb = spec.memory_mb * 1024.0
        self.procfs.mem.free_kb = spec.memory_mb * 1024.0
        self.procfs.nic("eth0").speed_mbps = spec.nic_mbit_s
        self._loads = [0.0, 0.0, 0.0]
        self._base_mem_kb = 300.0 * 1024.0  # kernel + system daemons
        self._active_streams = 0
        self._reset_tick()

    def _reset_tick(self) -> None:
        self._cpu_user = 0.0
        self._cpu_sys = 0.0
        self._cpu_iowait = 0.0
        self._cpu_demand = 0.0
        self._disk_read = 0.0
        self._disk_write = 0.0
        self._net_tx = 0.0
        self._net_rx = 0.0
        self._net_tx_drop = 0.0
        self._net_rx_drop = 0.0
        self._forks = 0.0
        self._iowait_procs = 0.0
        self._per_proc: Dict[int, Tuple[float, float, float, float]] = {}
        self._active_streams = 0

    # -- per-tick accounting (called by the cluster layer) ---------------------

    def begin_tick(self) -> None:
        self._reset_tick()

    def account_cpu(self, pid: int, user_s: float, sys_s: float = 0.0) -> None:
        """Record granted CPU time (core-seconds) for process ``pid``."""
        self._cpu_user += max(0.0, user_s)
        self._cpu_sys += max(0.0, sys_s)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (u + max(0.0, user_s), s + max(0.0, sys_s), r, w)

    def note_cpu_demand(self, cores: float) -> None:
        """Record *demanded* CPU (pre-arbitration), for run-queue/load."""
        self._cpu_demand += max(0.0, cores)

    def account_disk(self, pid: int, read_bytes: float, write_bytes: float) -> None:
        self._disk_read += max(0.0, read_bytes)
        self._disk_write += max(0.0, write_bytes)
        u, s, r, w = self._per_proc.get(pid, (0.0, 0.0, 0.0, 0.0))
        self._per_proc[pid] = (
            u, s, r + max(0.0, read_bytes), w + max(0.0, write_bytes)
        )

    def account_iowait(self, seconds: float) -> None:
        """Record time a process spent blocked on storage this tick."""
        self._cpu_iowait += max(0.0, seconds)
        self._iowait_procs += 1.0

    def account_net(
        self,
        tx_bytes: float = 0.0,
        rx_bytes: float = 0.0,
        tx_dropped: float = 0.0,
        rx_dropped: float = 0.0,
    ) -> None:
        self._net_tx += max(0.0, tx_bytes)
        self._net_rx += max(0.0, rx_bytes)
        self._net_tx_drop += max(0.0, tx_dropped)
        self._net_rx_drop += max(0.0, rx_dropped)
        if tx_bytes > 0 or rx_bytes > 0:
            self._active_streams += 1

    def account_forks(self, count: float) -> None:
        self._forks += max(0.0, count)

    # -- process table ---------------------------------------------------------

    def ensure_process(
        self,
        pid: int,
        name: str,
        rss_kb: float,
        vsz_kb: Optional[float] = None,
        threads: float = 1.0,
        fds: float = 16.0,
    ) -> None:
        proc = self.procfs.process(pid, name)
        proc.name = name
        proc.rss_kb = rss_kb
        proc.vsz_kb = vsz_kb if vsz_kb is not None else rss_kb * 1.6
        proc.threads = threads
        proc.fds = fds

    def remove_process(self, pid: int) -> None:
        self.procfs.processes.pop(pid, None)

    # -- folding the tick into /proc -------------------------------------------

    def end_tick(self, dt: float) -> None:
        """Fold accumulated activity plus OS noise into the counters."""
        fs = self.procfs
        # Python floats, so the counters stay plain floats (as the
        # procfs dataclasses declare) rather than numpy scalars.
        noise = self.noise.draw(dt).tolist()
        capacity = self.spec.cpu_cores * dt

        # Background OS activity keeps fault-free metrics non-degenerate.
        noise_user = noise[GAMMA_USER] * dt
        noise_sys = noise[GAMMA_SYS] * dt

        user = self._cpu_user + noise_user
        system = self._cpu_sys + noise_sys
        # Interrupt/nice overhead comes off the top of the budget; the
        # partition below always sums to exactly `capacity` per tick.
        irq = min(0.01 * dt + 1e-9 * (self._net_rx + self._net_tx), capacity * 0.05)
        softirq = irq * 0.6
        nice = min(0.0005 * dt, capacity * 0.01)
        available = capacity - irq - softirq - nice
        busy = user + system
        if busy > available:
            scale = available / busy
            user *= scale
            system *= scale
            busy = available
        iowait = min(self._cpu_iowait, available - busy)
        idle = max(0.0, available - busy - iowait)

        fs.cpu.user += user
        fs.cpu.system += system
        fs.cpu.iowait += iowait
        fs.cpu.idle += idle
        fs.cpu.irq += irq
        fs.cpu.softirq += softirq
        fs.cpu.nice += nice

        # Disk: derive request counts and busy time from bytes moved.
        reads = self._disk_read / DISK_IO_BYTES
        writes = self._disk_write / DISK_IO_BYTES
        fs.disk.reads_completed += reads
        fs.disk.writes_completed += writes
        fs.disk.sectors_read += self._disk_read / 512.0
        fs.disk.sectors_written += self._disk_write / 512.0
        read_busy = self._disk_read / self.spec.disk_read_bytes_s
        write_busy = self._disk_write / self.spec.disk_write_bytes_s
        busy_frac = min(1.0, read_busy + write_busy)
        fs.disk.io_time_ms += busy_frac * dt * 1000.0
        queue_depth = 1.0 + 3.0 * busy_frac + self._iowait_procs
        fs.disk.weighted_io_time_ms += busy_frac * dt * 1000.0 * queue_depth

        # Network counters, aggregated onto eth0.
        nic = fs.nic("eth0")
        tx_pkts = (self._net_tx + self._net_tx_drop) / PACKET_BYTES
        rx_pkts = (self._net_rx + self._net_rx_drop) / PACKET_BYTES
        nic.tx_bytes += self._net_tx
        nic.rx_bytes += self._net_rx
        nic.tx_packets += tx_pkts
        nic.rx_packets += rx_pkts
        nic.tx_drop += self._net_tx_drop / PACKET_BYTES
        nic.rx_drop += self._net_rx_drop / PACKET_BYTES
        nic.tx_errs += self._net_tx_drop / PACKET_BYTES * 0.1
        nic.rx_errs += self._net_rx_drop / PACKET_BYTES * 0.1
        nic.multicast += noise[POISSON_MCAST]

        # Kernel counters derived from activity levels.
        ios = reads + writes
        fs.stat.ctxt += (
            800.0 * dt + 300.0 * busy + 0.5 * (tx_pkts + rx_pkts) + 2.0 * ios
            + noise[NORMAL_CTXT]
        )
        fs.stat.intr += (
            250.0 * dt + tx_pkts + rx_pkts + ios + noise[NORMAL_INTR]
        )
        fs.stat.processes += self._forks + noise[POISSON_FORKS]
        fs.tcp.in_segs += rx_pkts
        fs.tcp.out_segs += tx_pkts
        fs.tcp.active_opens += 0.2 * dt + 0.02 * self._active_streams
        fs.tcp.passive_opens += 0.2 * dt + 0.02 * self._active_streams

        # Paging follows CPU work (heap churn) and disk traffic.
        fs.vm.pgpgin_kb += self._disk_read / 1024.0
        fs.vm.pgpgout_kb += self._disk_write / 1024.0
        fs.vm.pgfault += 50.0 * dt + 400.0 * busy + noise[NORMAL_PGFAULT]
        fs.vm.pgmajfault += noise[POISSON_PGMAJ]
        fs.vm.pgfree += 60.0 * dt + 0.3 * (self._disk_read + self._disk_write) / 4096.0

        # Memory gauges: resident sets plus a page cache fed by I/O.
        rss_total = sum(p.rss_kb for p in fs.processes.values())
        fs.mem.cached_kb = min(
            fs.mem.total_kb * 0.5,
            fs.mem.cached_kb * 0.999 + (self._disk_read + self._disk_write) / 1024.0,
        )
        fs.mem.buffers_kb = min(200e3, fs.mem.buffers_kb * 0.995 + ios * 4.0)
        used = self._base_mem_kb + rss_total + fs.mem.cached_kb + fs.mem.buffers_kb
        fs.mem.free_kb = max(64.0 * 1024.0, fs.mem.total_kb - used)
        fs.mem.committed_kb = self._base_mem_kb + sum(
            p.vsz_kb for p in fs.processes.values()
        )
        fs.mem.active_kb = rss_total + fs.mem.cached_kb * 0.4

        # Scheduler gauges: run queue is unmet demand, load is its EMA.
        runq = max(0.0, self._cpu_demand - self.spec.cpu_cores) + (
            1.0 if self._cpu_demand > 0 else 0.0
        )
        fs.loadavg.runq_sz = runq
        occupancy = min(self._cpu_demand, self.spec.cpu_cores) + runq
        for i, tau in enumerate(_LOAD_TAU):
            alpha = 1.0 - float(np.exp(-dt / tau))
            self._loads[i] += alpha * (occupancy - self._loads[i])
        fs.loadavg.one = self._loads[0]
        fs.loadavg.five = self._loads[1]
        fs.loadavg.fifteen = self._loads[2]
        fs.loadavg.plist_sz = 80.0 + len(fs.processes)

        # Socket gauges track live streams.
        fs.sockstat.tcpsck = 12.0 + 2.0 * self._active_streams
        fs.sockstat.totsck = 40.0 + 2.0 * self._active_streams
        fs.sockstat.tcp_tw = max(0.0, fs.sockstat.tcp_tw * 0.9) + (
            0.5 * self._active_streams
        )

        # Per-process counters.
        for pid, (u, s, r, w) in self._per_proc.items():
            if pid not in fs.processes:
                continue
            proc = fs.processes[pid]
            proc.utime += u
            proc.stime += s
            proc.read_kb += r / 1024.0
            proc.write_kb += w / 1024.0
            proc.minflt += 200.0 * (u + s)
            proc.cswch += 50.0 * (u + s) + (r + w) / DISK_IO_BYTES
            proc.nvcswch += 10.0 * (u + s)
            proc.iodelay_ticks += 100.0 * min(
                dt, (r / self.spec.disk_read_bytes_s)
                + (w / self.spec.disk_write_bytes_s),
            )

        self._reset_tick()
