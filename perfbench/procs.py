"""CPU time and resident memory of a process tree, polled from ``/proc``.

The benchmark process starts the Ray session (GCS, raylet, agents), and
the raylet starts every worker and actor process.  ``ProcessTree``
follows all descendants of that process and keeps each one it has seen,
keyed on ``(pid, start time)``, so the CPU of a process that exits in
the middle of a measured window (a finished actor pool, an idle worker
that is reaped) still counts up to its last poll.
"""

from __future__ import annotations

import os
import signal
import threading
import time

__all__ = ["ProcessTree"]

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int):
    """(ppid, start ticks, cpu ticks, rss bytes, zombie) of ``pid``, or
    None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces; every field after it is numeric
    f = raw[raw.rindex(b")") + 2:].split()
    zombie = f[0] == b"Z"                # exited, not yet reaped: times are final
    return (int(f[1]), int(f[19]), int(f[11]) + int(f[12]),
            0 if zombie else int(f[21]) * _PAGE, zombie)


class ProcessTree:
    """Background poller over ``root_pid`` and all its descendants.

    ``begin()`` opens a measuring window and ``end()`` closes it,
    returning (CPU seconds summed over every member, peak of the summed
    resident set in MB).  A member's CPU counts only from the window's
    start; a member born inside the window counts in full.
    """

    def __init__(self, root_pid: int, interval_s: float = 0.1):
        self.root = root_pid
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._ticks: dict = {}           # (pid, start) -> last cpu ticks seen
        self._alive: dict = {}           # pid -> start, members present at last poll
        self._zombies: set = set()       # members that exited, not yet reaped
        self._foreign: set = set()       # pids seen and not in the tree
        self._base: dict | None = None
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="proc-tree",
                                        daemon=True)

    def start(self) -> "ProcessTree":
        self.poll()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.poll()

    def poll(self) -> None:
        with self._lock:
            pids = {int(p) for p in os.listdir("/proc") if p.isdigit()}
            self._foreign &= pids
            fresh = {}
            for pid in pids - self._foreign - self._alive.keys():
                st = _stat(pid)
                if st is not None:
                    fresh[pid] = st
            alive: dict = {}
            zombies = set()
            rss = 0
            for pid, start in self._alive.items():
                st = _stat(pid)
                if st is None or st[1] != start:
                    continue                 # reaped; its last ticks stay counted
                alive[pid] = start
                self._ticks[(pid, start)] = st[2]
                rss += st[3]
                if st[4]:
                    zombies.add(pid)
            # adopt new processes whose parent is a member, to a fixpoint,
            # so a child found in the same scan as its parent is kept
            grew = True
            while grew:
                grew = False
                for pid, (ppid, start, ticks, mem, zombie) in list(fresh.items()):
                    if pid == self.root or ppid in alive:
                        alive[pid] = start
                        self._ticks[(pid, start)] = ticks
                        rss += mem
                        if zombie:
                            zombies.add(pid)
                        del fresh[pid]
                        grew = True
            self._foreign |= fresh.keys()
            self._alive = alive
            self._zombies = zombies
            if self._base is not None:
                self._peak = max(self._peak, rss)

    def begin(self) -> None:
        self.poll()
        with self._lock:
            self._base = dict(self._ticks)
            self._peak = 0

    def end(self) -> tuple:
        self.poll()
        with self._lock:
            base, self._base = self._base or {}, None
            ticks = sum(t - base.get(k, 0) for k, t in self._ticks.items())
            return ticks / _TICK, self._peak / 2 ** 20

    def descendants(self) -> list:
        """Members other than the root that are still running."""
        self.poll()
        with self._lock:
            return [p for p in self._alive
                    if p != self.root and p not in self._zombies]

    def kill_descendants(self, timeout_s: float = 10.0) -> list:
        """SIGKILL every live descendant and wait until each is gone.

        Returns the pids that were still alive when called."""
        left = self.descendants()
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:                          # reap direct children
                while os.waitpid(-1, os.WNOHANG)[0] > 0:
                    pass
            except ChildProcessError:
                pass
            if not self.descendants():
                break
            time.sleep(0.05)
        return left
