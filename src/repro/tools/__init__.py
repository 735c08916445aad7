"""Command-line front ends.

=====================  ==================================================
console script         module
=====================  ==================================================
``repro-verify``       :mod:`repro.tools.verify_cli`: one query, a race,
                       or a batch over suite designs, Verilog or AIGER
``repro-serve``        :mod:`repro.tools.serve_cli`: the verify server
``repro-cache``        :mod:`repro.tools.cache_cli`: inspect, fsck and
                       shrink the certificate cache
``repro-trace``        :mod:`repro.tools.trace_cli`: summarize, lint and
                       convert telemetry traces
=====================  ==================================================

The engines stand in for the tools the paper compares (ABC, EBMC, CBMC,
2LS, CPAchecker, IMPARA, SeaHorn, Astrée) by algorithm and representation
level; ``repro-verify --list-engines`` names them.  Importing this package
loads only the builtin ``atexit`` and ``gc``, so each front end starts with
only what it runs.

**Exit contract.**  Each front end's ``main()`` first calls
:func:`freeze_heap_at_exit`, so its process ends without tearing its heap
down object by object, and its output never depends on that teardown.
"""

import atexit
import gc


def freeze_heap_at_exit() -> None:
    """Freeze the collector once the interpreter exits.

    Every ``atexit`` handler, thread join and stream flush still runs; the
    final collections then skip the frozen heap, so cyclic garbage alive at
    exit is never finalized (Python does not promise that anyway).  So a
    CLI's output must never depend on teardown: every file it writes is
    closed before ``main()`` returns.  Nothing changes while the process
    runs, and one hook stays registered however often ``main()`` runs.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
