"""CPU seconds and peak memory of the workload process and its children."""

from __future__ import annotations

import os
import resource

_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys seconds of a live process from ``/proc`` (0.0 once gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # the command name may contain spaces; fields resume after ")"
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _proc_peak_rss_mb(pid) -> float | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class ProcessTree:
    """This process plus the child processes a workload started.

    Children that already exited are covered by ``RUSAGE_CHILDREN``;
    live ones (service workers) are read from ``/proc``.
    """

    def __init__(self, child_pids: list[int]):
        self.child_pids = list(child_pids)

    def cpu_seconds(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + sum(_proc_cpu_seconds(pid) for pid in self.child_pids)
        )

    def reset_peak(self) -> None:
        """Restart the kernel's peak-RSS watermark, so set-up (reference
        results are computed in this process) does not count as the
        workload's memory.  Where the kernel refuses, the peak stays the
        lifetime one."""
        for pid in ["self", *self.child_pids]:
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as fh:
                    fh.write("5")
            except OSError:
                pass

    def peak_rss_mb(self) -> float:
        """Sum of each process's own peak — an upper bound on the tree's."""
        own = _proc_peak_rss_mb("self")
        if own is None:  # no /proc: lifetime peak, KiB on Linux
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + sum(_proc_peak_rss_mb(pid) or 0.0 for pid in self.child_pids)
