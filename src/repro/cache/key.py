"""Canonical content keys for verification queries.

A cached verdict may only be served for the *exact* query that produced it:
the same design semantics, the same property and the same frame
representation.  The key is therefore a content hash of the full
``(TransitionSystem, property, representation)`` triple — every declared
signal, initial value, next-state function, environment constraint, wire
definition and the property expression are serialized into one canonical
JSON document (expressions through the stable node format of
:mod:`repro.certs.exprjson`) and digested with SHA-256.

Any semantic mutation of the design — a changed width, a different reset
value, an edited next-state function, an added constraint — changes the key,
so a stale entry can never be looked up.  Renaming-only changes also change
the key: the cache prefers a spurious miss (re-verify) over any risk of a
wrong hit, and a hit is *re-validated* against the queried design anyway
(see :mod:`repro.cache.result_cache`).

Keys are memoized per live :class:`~repro.netlist.TransitionSystem` (weak
keys, checked against the design's name and
:meth:`~repro.netlist.TransitionSystem.fingerprint`, so a design mutated in
place is hashed again), the way :mod:`repro.certs.validate` keys its
sessions.  A module lock guards the memo, and forked children start without
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from typing import Dict, Tuple

from repro.certs.exprjson import expr_to_json
from repro.netlist import TransitionSystem

#: format tag baked into every key so key-schema changes invalidate old stores
KEY_FORMAT = "repro-cache-key-v1"


def system_to_canonical_json(system: TransitionSystem) -> dict:
    """Serialize a design's verification-relevant content canonically.

    Signal maps are sorted by name so that declaration order does not leak
    into the key; constraint order is kept (it is part of how the design was
    stated, and order sensitivity can only cause a miss, never a wrong hit).
    """
    return {
        "name": system.name,
        "inputs": sorted(system.inputs.items()),
        "state_vars": sorted(system.state_vars.items()),
        "init": sorted(
            (name, expr_to_json(expr)) for name, expr in system.init.items()
        ),
        "next": sorted(
            (name, expr_to_json(expr)) for name, expr in system.next.items()
        ),
        "wires": sorted(
            (name, expr_to_json(expr)) for name, expr in system.wires.items()
        ),
        "constraints": [expr_to_json(expr) for expr in system.constraints],
    }


#: system -> ((name, fingerprint), {(property, representation): key})
_KEYS: "weakref.WeakKeyDictionary[TransitionSystem, Tuple[tuple, Dict]]" = (
    weakref.WeakKeyDictionary()
)
_KEYS_LOCK = threading.Lock()


def _forget_keys() -> None:
    """A forked child starts afresh: a parent thread may hold the lock."""
    global _KEYS, _KEYS_LOCK
    _KEYS = weakref.WeakKeyDictionary()
    _KEYS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_keys)


def cache_key(
    system: TransitionSystem, property_name: str, representation: str = "word"
) -> str:
    """The cache key of one verification query, as a SHA-256 hex digest."""
    stamp = (system.name, system.fingerprint())
    with _KEYS_LOCK:
        memo = _KEYS.get(system)
        if memo is None or memo[0] != stamp:
            memo = _KEYS[system] = (stamp, {})
        key = memo[1].get((property_name, representation))
    if key is None:
        key = _digest(system, property_name, representation)
        with _KEYS_LOCK:
            memo[1][(property_name, representation)] = key
    return key


def _digest(system: TransitionSystem, property_name: str, representation: str) -> str:
    prop = system.property_by_name(property_name)
    document = {
        "format": KEY_FORMAT,
        "representation": representation,
        "property": property_name,
        "property_expr": expr_to_json(prop.expr),
        "system": system_to_canonical_json(system),
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

