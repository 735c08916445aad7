"""Shared leveled progress logging for the CLIs (zero-dependency).

``repro-verify`` and ``repro-cache`` historically narrated progress through
unconditional ``print()`` calls, which made ``--batch`` sweeps unreadable in
CI and impossible to silence.  This module gives the CLIs one verbosity
dial:

* **result tables and machine-readable output stay on stdout** — they are
  the tools' contract and are never filtered here;
* **progress events go through** :func:`info` / :func:`verbose` /
  :func:`debug` and print to **stderr**, gated by the process-wide level;
* :func:`add_verbosity_flags` wires the standard ``-v / -q`` flags onto an
  ``argparse`` parser (repeatable: ``-vv`` for debug), and
  :func:`configure_from_args` sets the level from the parsed namespace,
  honouring the legacy ``--quiet`` / ``--verbose`` spellings where a CLI
  keeps them.

Levels: ``QUIET`` (errors only) < ``NORMAL`` (default; info) < ``VERBOSE``
(per-unit narration) < ``DEBUG`` (everything).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

QUIET = 0
NORMAL = 1
VERBOSE = 2
DEBUG = 3

_LEVEL = NORMAL


def set_level(level: int) -> int:
    """Set the process-wide verbosity; returns the previous level."""
    global _LEVEL
    previous = _LEVEL
    _LEVEL = max(QUIET, min(DEBUG, int(level)))
    return previous


def get_level() -> int:
    return _LEVEL


def is_verbose() -> bool:
    return _LEVEL >= VERBOSE


def _emit(level: int, message: str) -> None:
    if _LEVEL >= level:
        print(message, file=sys.stderr)


def error(message: str) -> None:
    """Always printed (stderr), even under ``-q``."""
    print(message, file=sys.stderr)


def info(message: str) -> None:
    """Default-level progress event (stderr; hidden by ``-q``)."""
    _emit(NORMAL, message)


def verbose(message: str) -> None:
    """Per-unit narration (stderr; shown from ``-v``)."""
    _emit(VERBOSE, message)


def debug(message: str) -> None:
    """Chatty internals (stderr; shown from ``-vv``)."""
    _emit(DEBUG, message)


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def add_verbosity_flags(parser: argparse.ArgumentParser) -> None:
    """Add the shared ``-v`` / ``-q`` flags to a CLI parser.

    ``-v`` raises the level one step per repetition (``-vv`` = debug);
    ``-q`` drops to quiet.  CLIs that predate this module may also define
    ``--quiet`` / ``--verbose`` booleans — :func:`configure_from_args`
    understands both spellings.
    """
    group = parser.add_argument_group("verbosity")
    group.add_argument(
        "-v",
        dest="verbosity",
        action="count",
        default=0,
        help="increase progress verbosity (-v per-unit, -vv debug)",
    )
    group.add_argument(
        "-q",
        dest="quietness",
        action="count",
        default=0,
        help="silence progress events (result tables stay on stdout)",
    )


def configure_from_args(args: argparse.Namespace) -> int:
    """Set the global level from parsed flags; returns the level chosen."""
    level = NORMAL
    level += int(getattr(args, "verbosity", 0) or 0)
    if getattr(args, "verbose", False):  # legacy boolean spelling
        level = max(level, VERBOSE)
    level -= int(getattr(args, "quietness", 0) or 0)
    if getattr(args, "quiet", False):  # legacy boolean spelling
        level = QUIET
    set_level(level)
    return get_level()


def temporary_level(level: int):
    """Context manager: run a block at a forced verbosity level."""

    class _Scope:
        def __enter__(self_inner) -> None:
            self_inner.previous = set_level(level)

        def __exit__(self_inner, *exc_info) -> bool:
            set_level(self_inner.previous)
            return False

    return _Scope()
