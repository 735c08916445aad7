"""The ``repro-serve-v1`` wire protocol: length-prefixed JSON frames.

One frame is::

    <decimal byte length of payload>\\n
    <payload: one UTF-8 JSON document>\\n

The explicit length prefix makes framing independent of the payload's
content (embedded newlines in strings are fine) and lets the reader bound
its allocation *before* reading the body — a garbage or hostile length is
rejected without buffering anything.  The trailing newline keeps captures
of the stream human-readable (``socat`` on the socket shows one JSON
document per frame).

Conversation shape: the server sends a ``hello`` frame on connect, then the
client sends request frames and reads reply frames.  Replies to ``verify``
are asynchronous (an immediate ``accepted``/``rejected``, then a ``result``
frame when the computation finishes) and carry the request ``id`` so a
client may pipeline.  Both readers live here, the server's incremental
:class:`FrameReader` and the client's blocking :func:`read_frame_blocking`,
so the two sides cannot drift apart: they take the same frames and refuse
the same garbage.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

#: protocol identifier sent in the server's hello frame
PROTOCOL = "repro-serve-v1"

#: hard bound on one frame's payload; a length prefix beyond this is a
#: protocol error, not an allocation
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: bound on a frame's length line, newline included, for both readers
MAX_LENGTH_LINE = 32

#: request operations a server understands
OP_VERIFY = "verify"
OP_PING = "ping"
OP_STATS = "stats"
OP_DRAIN = "drain"

#: server -> client liveness frames for a long-running request
OP_PROGRESS = "progress"


class ProtocolError(ValueError):
    """A malformed frame: bad length prefix, oversized payload, non-JSON body."""


#: the compact JSON encoding of frames and journal lines, one encoder for
#: the process (``json.dumps`` with separators builds one per call)
encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(document: object) -> bytes:
    """Serialize one document into a wire frame."""
    payload = encode_json(document).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds cap")
    return b"%d\n%s\n" % (len(payload), payload)


def _parse_length(line: bytes) -> int:
    try:
        length = int(line.strip().decode("ascii"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"bad frame length prefix {line!r}") from error
    if length < 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} out of range")
    return length


def _parse_payload(payload: bytes) -> object:
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"frame payload is not JSON: {error}") from error


class FrameReader:
    """The incremental reader: :meth:`feed` it bytes as they arrive and
    iterate it for the documents of the frames they complete.

    Iteration stops at an incomplete frame, whose bytes wait for the next
    feed, and raises :class:`ProtocolError` at bytes that cannot start a
    frame; a frame leaves the buffer before its document is yielded.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def __iter__(self) -> Iterator[object]:
        buffer = self._buffer
        while buffer:
            start = buffer.find(b"\n", 0, MAX_LENGTH_LINE) + 1
            if not start:
                if len(buffer) < MAX_LENGTH_LINE:
                    return  # the length line is still arriving
                raise ProtocolError(f"bad frame length prefix {bytes(buffer[:MAX_LENGTH_LINE])!r}")
            end = start + _parse_length(bytes(buffer[:start]))
            if len(buffer) <= end:  # payload or its trailing newline to come
                return
            payload = buffer[start:end]
            del buffer[: end + 1]
            yield _parse_payload(payload)


# ---------------------------------------------------------------------------
# blocking (socket-file) variants for the synchronous client
# ---------------------------------------------------------------------------


def read_frame_blocking(stream) -> Optional[object]:
    """Read one frame from a blocking binary file object (``socket.makefile``)."""
    line = stream.readline(MAX_LENGTH_LINE)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError(f"bad frame length prefix {line!r}")
    length = _parse_length(line)
    body = stream.read(length + 1)
    if body is None or len(body) < length + 1:
        raise ProtocolError("connection closed mid payload")
    return _parse_payload(body[:length])


def write_frame_blocking(stream, document: object) -> None:
    stream.write(encode_frame(document))
    stream.flush()


# ---------------------------------------------------------------------------
# address specs — how ``repro-serve --status`` names a server:
# ``unix:/path``, a bare path, or ``host:port``
# ---------------------------------------------------------------------------


def parse_addr(spec: str) -> tuple:
    """Parse an address spec into ``(socket_path, host, port)``.

    ``unix:`` prefixes force a unix socket; otherwise a single trailing
    ``:<digits>`` means TCP and anything else is a unix socket path.
    """
    spec = spec.strip()
    if spec.startswith("unix:"):
        return spec[len("unix:"):], None, 0
    if spec.startswith("tcp:"):
        spec = spec[len("tcp:"):]
        host, _, port = spec.rpartition(":")
        return None, host or "127.0.0.1", int(port)
    host, sep, port = spec.rpartition(":")
    if sep and port.isdigit() and "/" not in port:
        return None, host or "127.0.0.1", int(port)
    return spec, None, 0
