"""Host probes read from ``/proc``: process-tree peak RSS, host CPU busy
share, a single-core calibration loop, and reaping the processes a Ray
session leaves behind."""

from __future__ import annotations

import os
import signal
import time


def cpu_count() -> int:
    """CPUs this process may run on (``nproc`` honours OMP_NUM_THREADS and
    under-reports when a kernel-thread cap is exported)."""
    return len(os.sched_getaffinity(0))


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    return int(s[s.rfind(")") + 2 :].split()[1])


def descendants(root: int | None = None) -> list[int]:
    """Every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            pp = _ppid(int(name))
            if pp is not None:
                children.setdefault(pp, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM so input preparation does not count."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest VmHWM across this process and every process below it (the
    Ray GCS, raylet and workers)."""
    pids = [os.getpid()] + descendants()
    return max(_vm_hwm_kb(p) for p in pids) / 1024.0


def cpu_ticks() -> tuple[int, int, int]:
    """(busy, total, steal) jiffies summed over every CPU of the host;
    steal is time the hypervisor ran something else on our CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    idle = v[3] + v[4]  # idle + iowait
    return sum(v) - idle, sum(v), v[7]


def busy_share(t0: tuple, t1: tuple) -> float:
    """Host CPU busy time over wall time x CPUs between two cpu_ticks()."""
    busy, total = t1[0] - t0[0], t1[1] - t0[1]
    return busy / total if total else 0.0


def steal_share(t0: tuple, t1: tuple) -> float:
    """Stolen CPU time over wall time x CPUs between two cpu_ticks()."""
    total = t1[1] - t0[1]
    return (t1[2] - t0[2]) / total if total else 0.0


def _burn(n: int) -> int:
    x = 0
    for i in range(n):
        x += i * i % 7
    return x


def calibration() -> dict:
    """The bench.py-style single-core probe plus the CPU count."""
    t0 = time.perf_counter()
    _burn(2_000_000)
    return {"cpus": cpu_count(), "cpu_probe_s": time.perf_counter() - t0}


def reap(pids: list[int], timeout: float = 20.0) -> None:
    """Wait until every pid has exited; SIGKILL what is left at the
    deadline, then wait for those too."""

    def alive() -> list[int]:
        out = []
        for p in pids:
            try:
                with open(f"/proc/{p}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "Z":
                out.append(p)
            else:  # a zombie child of ours: collect it
                try:
                    os.waitpid(p, os.WNOHANG)
                except ChildProcessError:
                    pass
        return out

    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in alive():
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
