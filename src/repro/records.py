"""The base of the immutable records a verdict builds.

The records on the verdict path (designs' properties, tasks, ladder rungs,
engine registrations, results, certificates) are plain classes with
explicit constructors, not dataclasses: every ``repro-verify`` query runs in
a fresh process, and :mod:`dataclasses` would cost each one the import of
:mod:`inspect` (with ``ast``, ``dis`` and ``tokenize``) and the generation
of every record's methods before any verification starts.

An immutable record derives from :class:`Frozen`, sets its fields with
``object.__setattr__`` in ``__init__`` and keeps its ``__dict__``: pickling
(records cross worker pipes) and copying restore the ``__dict__`` directly,
without going through the raising ``__setattr__``.
"""


class Frozen:
    """Base of an immutable record: assigning a field raises ``AttributeError``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")
