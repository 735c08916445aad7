"""Atomic small-file writes for reports and certificates.

Every JSON artifact the toolchain writes (``BENCH_*.json`` reports,
certificate documents, cache entries) is consumed later by other runs —
``learn_priors`` reads benchmark reports, the cache re-validates entries —
so a torn write from a crashed or killed process must never leave a
half-document behind under the final name.  Writing to a temp file in the
same directory and ``os.replace``-ing it over the target is atomic on POSIX.
"""

from __future__ import annotations

import os
import tempfile


def write_text_atomic(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (tmp + rename); returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path


def write_json_atomic(path: str, document: object, indent: int = 2) -> str:
    """Serialize ``document`` and write it to ``path`` atomically."""
    import json  # a verdict process writes no JSON unless asked to

    return write_text_atomic(
        path, json.dumps(document, indent=indent, default=str) + "\n"
    )
