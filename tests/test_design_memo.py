"""The one memo of what a process derives from a design.

:func:`repro.netlist.transition.derived` builds each entry once, under that
entry's own lock: a build in progress holds back only the threads asking
for that entry, never another design's.  A forked child keeps every
finished value, and builds for itself the entries a parent thread was
still building.
"""

import os
import select
import signal
import threading

import pytest

from repro.benchmarks import load_system
from repro.engines.encoding import (
    TemplateLibrary,
    cone_of_influence,
    flattened_cached,
    template_library,
)
from repro.netlist import TransitionSystem
from repro.netlist.simulate import ScalarStep
from repro.netlist.step import StepCompiler


def _hold(monkeypatch, cls, method, design):
    """Patch ``cls.method`` so that, in this process, a call on ``design``
    waits until released; returns the (held, release) events."""
    held, release = threading.Event(), threading.Event()
    original = getattr(cls, method)
    parent = os.getpid()

    def holding(self):
        system = self if isinstance(self, TransitionSystem) else self.system
        if system.name == design and os.getpid() == parent:
            held.set()
            release.wait(60)
        return original(self)

    monkeypatch.setattr(cls, method, holding)
    return held, release


def _returns_within(seconds, call):
    """Whether ``call()``, run in a thread of its own, returns in time."""
    done = threading.Event()

    def run():
        call()
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return done.wait(seconds)


def _count(monkeypatch, cls, method, calls):
    original = getattr(cls, method)

    def counting(self, *args):
        calls.append(cls.__name__)
        return original(self, *args)

    monkeypatch.setattr(cls, method, counting)


# ---------------------------------------------------------------------------
# no build holds back another design
# ---------------------------------------------------------------------------


def test_a_flatten_in_progress_holds_back_no_other_design(monkeypatch):
    held, release = _hold(monkeypatch, TransitionSystem, "flattened", "tlc")
    tlc, daio = load_system("tlc"), load_system("daio")  # fresh: no memo holds them
    holder = threading.Thread(target=flattened_cached, args=(tlc,))
    holder.start()
    try:
        assert held.wait(10)
        assert _returns_within(1.0, lambda: flattened_cached(daio))
    finally:
        release.set()
        holder.join(60)
    assert not holder.is_alive()


def test_a_step_compile_in_progress_holds_back_no_other_design(monkeypatch):
    held, release = _hold(monkeypatch, StepCompiler, "compile", "tlc")
    tlc, daio = load_system("tlc"), load_system("daio")
    holder = threading.Thread(target=ScalarStep.step_for, args=(tlc,))
    holder.start()
    try:
        assert held.wait(10)
        assert _returns_within(1.0, lambda: ScalarStep.step_for(daio))
    finally:
        release.set()
        holder.join(60)
    assert not holder.is_alive()


# ---------------------------------------------------------------------------
# a forked child
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with a live thread
def test_a_forked_child_keeps_finished_values_and_builds_unfinished_ones(monkeypatch):
    mac16, fifo = load_system("mac16"), load_system("fifo")
    cone = cone_of_influence(mac16, mac16.properties[0].name)
    library = template_library(cone, "word")
    step = ScalarStep.step_for(mac16)
    built = []
    _count(monkeypatch, TemplateLibrary, "__init__", built)
    _count(monkeypatch, StepCompiler, "compile", built)
    held, release = _hold(monkeypatch, TransitionSystem, "flattened", "fifo")
    holder = threading.Thread(target=flattened_cached, args=(fifo,))
    holder.start()
    read_fd, write_fd = os.pipe()
    pid, reply = 0, b"deadlocked"
    try:
        assert held.wait(10)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                inherited = (
                    template_library(cone, "word") is library
                    and ScalarStep.step_for(mac16) is step
                )
                report = f"{inherited} {len(built)} {flattened_cached(fifo).name}"
                os.write(write_fd, report.encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        write_fd = None
        if select.select([read_fd], [], [], 60)[0]:
            reply = os.read(read_fd, 64)
    finally:
        release.set()
        holder.join(60)
        if pid and reply == b"deadlocked":
            os.kill(pid, signal.SIGKILL)
        if pid:
            os.waitpid(pid, 0)
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.close(fd)
    assert not holder.is_alive()
    assert reply == b"True 0 fifo"
    assert built == []  # nor did the parent build anything after the warm-up
