"""Process control, statistics and the environment record of the benchmark.

Every program the benchmark starts runs in its own process group (its own
session), from a working directory the benchmark owns, and is reaped with
``os.wait4`` so its CPU time and peak resident set size come from the
kernel's accounting of the process and every descendant it waited for.
A program that exits while members of its group still run has leaked them:
they are recorded on the program and killed, so the group is gone before
the next program starts.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: the checkout the benchmark runs in (the parent of this directory)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space of every run (ignored by git)
WORK = os.path.join(HERE, ".work")

#: the reference task: a fresh isolated interpreter importing a fixed set of
#: standard-library modules.  It runs no code of the program, so only the
#: machine moves its time.
REFERENCE = [
    "-I", "-c",
    "import argparse, asyncio, dataclasses, decimal, fractions, json, statistics, typing",
]
#: the reference task's median time on the 2-CPU machine the benchmark was
#: tuned on.  End-to-end time metrics are reported at this reference speed:
#: each is scaled by REFERENCE_S over the run's median reference time.
REFERENCE_S = 0.13

#: how long a launched program may run before its group is killed
LAUNCH_TIMEOUT_S = 150.0
#: how long a killed process group may take to disappear
REAP_TIMEOUT_S = 10.0


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, leaked process, ...)."""


@dataclass
class Launched:
    """One finished program: its exit code, time, memory and output."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def child_env(run_dir: str) -> Dict[str, str]:
    """The environment of every launched program of one run.

    The kernel cache and any XDG cache land inside the run directory;
    ``Run.start`` sets the hash seed of each program.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_KERNEL_CACHE"] = os.path.join(run_dir, "kernels")
    env["XDG_CACHE_HOME"] = os.path.join(run_dir, "xdg")
    env.pop("PYTHONSTARTUP", None)
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _live_members(pgid: int) -> List[int]:
    """Non-zombie processes still in the group (zombies hold no resources)."""
    members = []
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path, "r", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if len(fields) > 2 and fields[2] == str(pgid) and fields[0] != "Z":
            members.append(int(stat_path.split("/")[2]))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int) -> None:
    """Make sure nothing of the process group ``pgid`` survives."""
    if not _group_alive(pgid):
        return
    kill_group(pgid)
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        if not _group_alive(pgid) or not _live_members(pgid):
            return
        time.sleep(0.01)
    raise BenchError(f"process group {pgid} survived SIGKILL: {_live_members(pgid)}")


class Program:
    """A launched program in its own process group; ``wait`` reaps it.

    ``leaked`` lists the members of the group that were still running when
    the program exited on its own.
    """

    def __init__(self, argv: Sequence[str], cwd: str, env: Dict[str, str], log_prefix: str) -> None:
        self.argv = list(argv)
        self._stdout_path = log_prefix + ".out"
        self._stderr_path = log_prefix + ".err"
        with open(self._stdout_path, "wb") as out, open(self._stderr_path, "wb") as err:
            self.started = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        self.pid = self.process.pid
        self.done = False
        self.killed = False
        self.leaked: List[int] = []
        self._watchdog = threading.Timer(LAUNCH_TIMEOUT_S, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def wait(self) -> Launched:
        try:
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            self._watchdog.cancel()
        wall = time.perf_counter() - self.started
        self.done = True
        self.process.returncode = os.waitstatus_to_exitcode(status)
        if not self.killed:
            self.leaked = _live_members(self.pid)
        reap_group(self.pid)
        with open(self._stdout_path, "r", encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(self._stderr_path, "r", encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return Launched(
            returncode=self.process.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout,
            stderr=stderr,
        )

    def _kill(self) -> None:
        self.killed = True
        kill_group(self.pid)

    def kill(self) -> Launched:
        self._kill()
        return self.wait()


def group_cpu_s(pgid: int) -> float:
    """CPU seconds used so far by the live members of a process group.

    Counts each member's own time plus the time of the children it reaped.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path, "r", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if len(fields) > 14 and fields[2] == str(pgid):
            total += sum(int(value) for value in fields[11:15])
    return total / ticks


def fresh_dir(*parts: str) -> str:
    path = os.path.join(*parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def metric_units(kind: str) -> Dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> float:
    """The highest percentile (at most the 99th) with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    upper quartile is reported instead, since the slowest of a handful of
    samples mostly measures the machine's noise.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2] if count > 1 else ordered[0]
    return ordered[min(count - 11, math.ceil(0.99 * count) - 1)]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _commit() -> Optional[str]:
    """The checkout's commit, or None when the checkout is no git repository.

    The ceiling keeps git from taking up a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def source_stats() -> Dict[str, object]:
    """Line count and content digest of the program's ``src/`` tree."""
    digest = hashlib.sha256()
    lines = 0
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    for path in files:
        with open(path, "rb") as handle:
            data = handle.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, SRC).encode())
        digest.update(data)
    return {"src_files": len(files), "src_lines": lines, "src_sha256": digest.hexdigest()}


def environment() -> Dict[str, object]:
    """What a result needs to be compared with another one."""
    compilers = {name: shutil.which(name) for name in ("cc", "gcc", "clang")}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "c_compiler": next((path for path in compilers.values() if path), None),
        "repro_cc": os.environ.get("REPRO_CC"),
        "commit": _commit(),
        **source_stats(),
    }
