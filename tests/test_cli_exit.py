"""How a front end's process ends.

Each console script's ``main()`` registers ``gc.freeze`` to run at exit
(:func:`repro.tools.freeze_heap_at_exit`), so the interpreter's final
collections skip the heap instead of freeing it object by object.  These
tests check that every front end ends frozen, that repeated ``main()``
calls keep one hook, and that what a CLI writes (certificate, AIGER
stimulus, trace, a piped stdout whose reader has gone) never depends on
the teardown it skips.
"""

import os
import subprocess
import sys

import pytest

from repro.aig import aig_from_transition_system
from repro.benchmarks import load_system
from repro.certs import Witness, loads, validate_certificate
from repro.obs import telemetry
from repro.obs.export import write_trace

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _python(*args, stdout=subprocess.PIPE):
    """Run ``python *args`` in a fresh interpreter over this checkout's src,
    its stdout block-buffered as a pipe's is by default."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )


def _exit_probe(module: str, argv, calls: int = 1) -> str:
    """A probe that runs ``main(argv)`` ``calls`` times, then, from an exit
    hook registered before the CLI's (so it runs after it), prints whether
    the heap is frozen and how often ``gc.freeze`` ran."""
    return (
        "import atexit, contextlib, gc, io\n"
        "freezes = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (freezes.append(1), freeze())[1]\n"
        "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0, len(freezes)))\n"
        f"from repro.tools.{module} import main\n"
        f"for _ in range({calls}):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        f"            code = main({argv!r})\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "    print('main', code)\n"
    )


def _tiny_trace(path) -> str:
    with telemetry.recording() as recorder:
        with telemetry.span("probe"):
            pass
    write_trace(recorder, str(path))
    return str(path)


@pytest.mark.parametrize("cli", ["verify", "cache", "serve", "trace"])
def test_every_front_end_ends_with_a_frozen_heap(tmp_path, cli):
    if cli == "verify":
        argv = ["daio", "--certify"]
    elif cli == "cache":
        argv = ["--cache-dir", str(tmp_path / "cache"), "stats"]
    elif cli == "serve":
        argv = ["--help"]
    else:
        argv = ["lint", _tiny_trace(tmp_path / "t.jsonl"), "--expect-clean"]
    completed = _python("-c", _exit_probe(f"{cli}_cli", argv))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == ["main 0", "exit True 1"]


def test_repeated_main_calls_keep_one_exit_hook():
    completed = _python("-c", _exit_probe("verify_cli", ["daio", "--certify"], calls=3))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == ["main 0"] * 3 + ["exit True 1"]


def test_a_cold_query_keeps_its_outputs_when_its_process_ends(tmp_path):
    cert_path = tmp_path / "daio.cert.json"
    trace_path = tmp_path / "daio.trace.jsonl"
    completed = _python(
        "-m", "repro.tools.verify_cli", "daio", "--certify",
        "--save-certificate", str(cert_path), "--trace", str(trace_path),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr

    system = load_system("daio")
    certificate = loads(cert_path.read_text())
    assert isinstance(certificate, Witness)
    assert validate_certificate(system, certificate).ok
    stimulus = (tmp_path / "daio.cert.cex").read_text()
    assert stimulus == certificate.to_aiger_stimulus(aig_from_transition_system(system))

    lint = _python("-m", "repro.tools.trace_cli", "lint", str(trace_path), "--expect-clean")
    assert lint.returncode == 0, lint.stdout + lint.stderr


def test_a_reader_gone_before_the_first_write_leaves_the_exit_code_alone():
    """``repro-verify daio --certify`` into a pipe nobody reads: the output
    stays buffered until ``main()`` flushes it, the flush finds the pipe
    broken, and the tail the interpreter flushes at exit goes nowhere."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        completed = _python(
            "-m", "repro.tools.verify_cli", "daio", "--certify", stdout=write_end
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr
    assert "BrokenPipeError" not in completed.stderr
