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
client may pipeline.  Both async (server) and blocking (client) helpers
live here so the two sides cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

#: protocol identifier sent in the server's hello frame
PROTOCOL = "repro-serve-v1"

#: hard bound on one frame's payload; a length prefix beyond this is a
#: protocol error, not an allocation
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: request operations a server understands
OP_VERIFY = "verify"
OP_PING = "ping"
OP_STATS = "stats"
OP_DRAIN = "drain"

#: server -> client liveness frames for a long-running request
OP_PROGRESS = "progress"


class ProtocolError(ValueError):
    """A malformed frame: bad length prefix, oversized payload, non-JSON body."""


def encode_frame(document: object) -> bytes:
    """Serialize one document into a wire frame."""
    payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
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


async def read_frame(reader: asyncio.StreamReader) -> Optional[object]:
    """Read one frame; ``None`` on clean EOF before a length prefix."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid length prefix") from error
    length = _parse_length(line)
    try:
        body = await reader.readexactly(length + 1)  # payload + trailing \n
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid payload") from error
    return _parse_payload(body[:length])


async def write_frame(writer: asyncio.StreamWriter, *documents: object) -> None:
    """Write ``documents`` as consecutive frames in one transport write."""
    writer.write(b"".join(encode_frame(document) for document in documents))
    await writer.drain()


# ---------------------------------------------------------------------------
# blocking (socket-file) variants for the synchronous client
# ---------------------------------------------------------------------------


def read_frame_blocking(stream) -> Optional[object]:
    """Read one frame from a blocking binary file object (``socket.makefile``)."""
    line = stream.readline(32)
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
