"""The server process's lifecycle as the benchmark sees it: start it,
wait for its listener, sample the memory of its process tree, kill or
stop it, and check that nothing it started outlives it."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SHM_DIR = "/dev/shm"


def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant."""
    children = _children_map()
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, ()))
    return tree


def memory_kb(pid: int) -> int:
    """Proportional set size of one process (resident size where PSS is
    unavailable), so pages shared with forked workers count once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def shm_segments(pid: int) -> list[str]:
    """Shared-memory segments published by server ``pid`` (the serving
    layer names them ``pqe<pid in hex>...``)."""
    prefix = f"pqe{pid:x}"
    try:
        return sorted(n for n in os.listdir(SHM_DIR) if n.startswith(prefix))
    except OSError:
        return []


def vm_cpu_s() -> tuple[float, float]:
    """CPU seconds since boot, summed over the VM's CPUs: ``(busy,
    stolen)``.  Busy is user, nice, system, irq and softirq time; stolen
    is the time the hypervisor gave to other guests while this VM wanted
    the CPU (the ``steal`` column of ``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(f) for f in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


def reap_descendants(timeout: float = 10.0) -> list[int]:
    """SIGKILL whatever this process started and still runs (after a
    normal run, only multiprocessing's resource tracker), wait for each
    to end, and return their pids."""
    pids = process_tree(os.getpid())[1:]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                if not any(alive(pid) for pid in pids):
                    break
                time.sleep(0.01)
        except ChildProcessError:
            break
    return pids


class SpeedProbe:
    """The ``speed.py`` process, from :meth:`start` to :meth:`stop`."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py")],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        if self.process.stdout.readline().strip() != "READY":
            self.process.kill()
            self.process.wait()
            raise RuntimeError("the speed probe did not start")

    def stop(self, timeout: float = 30.0) -> list:
        """SIGTERM the probe, wait for it, and return its samples:
        ``[end, cpu_ms]`` pairs."""
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("the speed probe did not stop") from None
        return json.loads(out)


class ServerProcess:
    """One ``server.py`` process."""

    def __init__(self, journal: str | None):
        self.command = [sys.executable, os.path.join(HERE, "server.py")]
        if journal is not None:
            self.command += ["--journal", journal]
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.seen: set[int] = set()

    @property
    def pid(self) -> int:
        return self.process.pid

    def start(self, log_dir: str, timeout: float = 60.0) -> None:
        """Start the server and wait for its listener.  Its stderr goes
        to a log file, so nothing it leaves behind can hold the
        benchmark's own output open."""
        with open(os.path.join(log_dir, "server.log"), "ab") as log:
            self.process = subprocess.Popen(
                self.command, stdout=subprocess.PIPE,
                stdin=subprocess.DEVNULL, stderr=log, text=True,
            )
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.kill()
                raise RuntimeError("server did not come up in time")
            line = self.process.stdout.readline()
            if not line:
                self.reap(5.0)
                raise RuntimeError(
                    f"server exited with {self.process.returncode} "
                    f"before listening"
                )
            if line.startswith("READY "):
                self.port = int(line.split()[1])
                return

    def tree(self) -> list[int]:
        pids = process_tree(self.pid)
        self.seen.update(pids)
        return pids

    def memory_mb(self) -> float:
        return sum(memory_kb(pid) for pid in self.tree()) / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole tree: the crash lane."""
        for pid in self.tree():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.reap(10.0)

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM and wait; returns whether it exited on its own."""
        self.tree()
        self.process.send_signal(signal.SIGTERM)
        clean = self.reap(timeout)
        if not clean:
            self.kill()
        return clean

    def reap(self, timeout: float) -> bool:
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        finally:
            if self.process.returncode is not None:
                self.process.stdout.close()
        return True

    def leftovers(self, grace: float = 10.0,
                  with_segments: bool = True) -> list[str]:
        """What survives the server: live processes of its tree and (with
        ``with_segments``) its shared-memory segments.  Waits up to ``grace``
        seconds for children that exit after their parent."""
        deadline = time.monotonic() + grace
        while True:
            live = [pid for pid in sorted(self.seen) if alive(pid)]
            segments = shm_segments(self.pid) if with_segments else []
            if (not live and not segments) or time.monotonic() > deadline:
                return [f"pid {pid}" for pid in live] + segments
            time.sleep(0.05)
