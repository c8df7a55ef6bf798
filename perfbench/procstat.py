"""CPU seconds and resident memory of the driver and its Ray session, read
from ``/proc`` (no psutil). A local ``ray.init`` starts the GCS, raylet
and, through the raylet, every worker as descendants of the driver, so the
process tree rooted at the driver is the whole session."""

from __future__ import annotations

import os
import signal
import threading
import time

_CLK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the parenthesised command name."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:  # the process exited
        return None


def session_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all of its descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            f = _stat_fields(int(d))
            if f is not None:
                children.setdefault(int(f[1]), []).append(int(d))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def cpu_seconds(pids) -> dict[int, float]:
    """pid -> user + system CPU seconds (exited processes are left out)."""
    out = {}
    for p in pids:
        f = _stat_fields(p)
        if f is not None:
            out[p] = (int(f[11]) + int(f[12])) / _CLK
    return out


def cpu_since(before: dict[int, float]) -> float:
    """CPU seconds the session used since ``before`` was taken; processes
    started since then count in full."""
    now = cpu_seconds(session_pids())
    return sum(c - before.get(p, 0.0) for p, c in now.items())


def rss_bytes(pids) -> int:
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


def _alive(pids) -> list[int]:
    return [p for p in pids if (_stat_fields(p) or ["Z"])[0] != "Z"]


def stop_all(pids, timeout: float = 10.0) -> None:
    """Wait up to ``timeout`` for ``pids`` to exit, then SIGKILL the rest
    and wait for them as long again."""
    for attempt in range(2):
        deadline = time.monotonic() + timeout
        while _alive(pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = _alive(pids)
        if not pids or attempt:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass


class PeakRss:
    """Background sampler of the session's summed RSS; ``peak`` holds the
    largest sum seen between ``start()`` and ``stop()``."""

    def __init__(self, interval: float = 0.02, rescan_every: int = 10):
        self.interval = interval
        self.rescan_every = rescan_every
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        pids = session_pids()
        k = 0
        while True:
            self.peak = max(self.peak, rss_bytes(pids))
            if self._stop.wait(self.interval):
                return
            k += 1
            if k % self.rescan_every == 0:
                pids = session_pids()

    def start(self) -> "PeakRss":
        self._thread.start()
        return self

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, rss_bytes(session_pids()))
        return self.peak
