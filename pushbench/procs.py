"""Service processes: launch, find every pid, read peak RSS, stop, and
prove that nothing outlives a run.

The service always runs as separate processes started the way an
operator starts it (``python -m repro.service --serve``), with its
working directory inside the run's scratch directory.  That directory is
how a leftover is recognised: any ``repro.service`` process whose cwd lies
under the benchmark's scratch root is an orphan of this checkout.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


class ServiceFailure(RuntimeError):
    """The service could not be started or stopped cleanly."""


def _cmdline(pid: int) -> list[str]:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return []
    return [part.decode(errors="replace") for part in raw.split(b"\0") if part]


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    for line in status.splitlines():
        if line.startswith("State:"):
            return "Z" not in line.split()[1]
    return True


def service_orphans(scratch_root: Path) -> list[int]:
    """Pids of ``repro.service`` processes running under ``scratch_root``."""
    root = str(scratch_root.resolve())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        argv = _cmdline(int(entry.name))
        if "repro.service" not in argv or "--serve" not in argv:
            continue
        try:
            cwd = os.readlink(entry / "cwd")
        except OSError:
            continue
        if (cwd == root or cwd.startswith(root + os.sep)) and _alive(int(entry.name)):
            found.append(int(entry.name))
    return found


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    dies (a fleet worker whose router crashed, say), so that
    :func:`stop_children` can find and reap it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the command name: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children(grace: float = 2.0) -> list[int]:
    """Stop every child process still alive and wait until each has
    ended; returns the pids that had to be stopped.

    The one expected here is ``multiprocessing``'s resource tracker,
    which the reference's spawn pool starts and which otherwise lives
    until just after this process exits.  It ignores SIGTERM, so what
    outlasts ``grace`` seconds after SIGTERM gets SIGKILL."""
    stopped = []
    while children := _children():
        stopped += [pid for pid in children if pid not in stopped]
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and any(_alive(pid) for pid in children):
            time.sleep(0.02)
        for pid in children:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    return stopped


def peak_rss_mib(pids: list[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
        else:
            raise ServiceFailure(f"pid {pid} reports no VmHWM")
    return total_kib / 1024.0


class Service:
    """One launch of the service (a server, or a fleet router + workers)."""

    def __init__(self, run_dir: Path, *, workers: int, env: dict):
        self.run_dir = run_dir
        argv = [sys.executable, "-m", "repro.service", "--serve", "127.0.0.1:0"]
        if workers > 1:
            # The fleet in its deployed shape: durable workers + hot standby,
            # under a checkpoint root that is fresh for every launch.
            argv += ["--workers", str(workers), "--checkpoint-dir", str(run_dir / "ckpt")]
        run_dir.mkdir(parents=True)
        self._log = open(run_dir / "service.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self._drain: threading.Thread | None = None
        self.pids: list[int] = [self.proc.pid]

    def wait_listening(self, timeout: float = 60.0) -> tuple[str, int]:
        """Block until the service prints its bound address."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buffer = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceFailure(f"service did not listen within {timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServiceFailure(
                    f"service exited before listening (rc={self.proc.wait()}); "
                    f"see {self.run_dir / 'service.log'}"
                )
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                text = line.decode(errors="replace").strip()
                if text.startswith("listening on "):
                    host, _, port = text.removeprefix("listening on ").rpartition(":")
                    # Keep reading what the service prints, so its pipe never fills.
                    self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
                    self._drain.start()
                    return host, int(port)

    def adopt_fleet(self, topology: dict) -> None:
        """Record the worker and standby pids the router reports."""
        self.pids = [self.proc.pid] + [w["pid"] for w in topology["workers"]]
        if topology.get("standby"):
            self.pids.append(topology["standby"]["pid"])

    def kill(self) -> None:
        """Last-resort cleanup after a failed run: SIGKILL every known pid."""
        for pid in self.pids:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        self.proc.wait()

    def stop(self, client=None, timeout: float = 20.0) -> None:
        """Shut down cleanly (via ``client`` when given), then verify that
        every recorded pid is gone.  Anything left is killed and reported."""
        if client is not None and self.proc.poll() is None:
            try:
                client.shutdown()
            except Exception:
                pass
            client.close()
        clean = True
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            clean = False
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + timeout
        leftover = [p for p in self.pids if _alive(p)]
        while leftover and time.monotonic() < deadline:
            time.sleep(0.02)
            leftover = [p for p in leftover if _alive(p)]
        for pid in leftover:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()
        if not clean or leftover:
            raise ServiceFailure(
                f"service did not stop cleanly (router exit clean={clean}, "
                f"killed leftover pids {leftover}); see {self.run_dir / 'service.log'}"
            )
        if self.proc.returncode != 0:
            raise ServiceFailure(
                f"service exited with code {self.proc.returncode}; "
                f"see {self.run_dir / 'service.log'}"
            )
