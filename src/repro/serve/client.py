"""Blocking client for the ``repro-serve-v1`` protocol.

One :class:`ServeClient` wraps one connection.  The protocol allows
pipelining (replies carry request ids), but this client keeps the simple
synchronous shape the CLI and the soak harness need: :meth:`verify` sends
one request and blocks until its ``result`` frame (matching by id, so a
server that interleaves other frames is handled).  Use one client per
thread for concurrency — that is exactly how the soak harness generates
load.

Reconnects: the client remembers every submitted-but-unanswered request
(its ids are journaled server-side the moment they were accepted).  When
the connection dies — reset, refused, EOF mid-frame — it makes up to
:data:`RECONNECT_ATTEMPTS` reconnects, waiting :data:`RECONNECT_DELAY_S`
before the first and twice as long before each next one (at most
:data:`RECONNECT_MAX_DELAY_S`), and resubmits exactly those pending ids, so
a server restart is one transparent hiccup instead of an exception.
Resubmission is idempotent: the id is unchanged, so a coalescing server
folds the resubmitted request into work it already knows, and a restarted
server, which NACKed the id on recovery, answers it afresh (from the cache
if the verdict landed there).  Set ``reconnect=False`` to fail fast
instead.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, Optional

from repro.serve.protocol import (
    OP_DRAIN,
    OP_PING,
    OP_PROGRESS,
    OP_STATS,
    OP_VERIFY,
    ProtocolError,
    read_frame_blocking,
    write_frame_blocking,
)


#: reconnects a broken connection gets before :class:`ServeError`
RECONNECT_ATTEMPTS = 6
#: wait before the first reconnect; each later one waits twice as long
RECONNECT_DELAY_S = 0.05
#: cap on the wait before one reconnect
RECONNECT_MAX_DELAY_S = 2.0


class ServeError(RuntimeError):
    """The server rejected a request or the connection broke mid-call."""

    def __init__(self, message: str, reply: Optional[dict] = None) -> None:
        super().__init__(message)
        self.reply = reply


class ConnectionClosed(ServeError):
    """The server went away mid-conversation (EOF or reset)."""


#: connection-level failures the reconnect loop absorbs
_RETRYABLE = (
    ConnectionClosed,
    ConnectionResetError,
    ConnectionRefusedError,
    ConnectionAbortedError,
    BrokenPipeError,
    ProtocolError,
    OSError,
)


class ServeClient:
    """One blocking connection to a verify server (unix socket or TCP)."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        timeout: Optional[float] = None,
        reconnect: bool = True,
    ) -> None:
        if not socket_path and not host:
            raise ValueError("client needs a unix socket path or a TCP host")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self.reconnect = reconnect
        #: frames read while waiting for a different request's reply — the
        #: server answers in completion order, a pipelining caller reads in
        #: submission order, so out-of-order results are parked here by id
        self._parked: dict = {}
        #: submitted-but-unanswered requests by id: exactly what a
        #: reconnect must resubmit (the server journaled their accepts)
        self._pending: Dict[str, dict] = {}
        #: observer for streamed ``progress`` frames (never parked)
        self.on_progress = None
        self.reconnects = 0
        self.resubmitted = 0
        self._socket = None
        self._stream = None
        self._connect()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def _connect(self) -> None:
        try:
            if self._socket_path:
                self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._socket.settimeout(self._timeout)
                self._socket.connect(self._socket_path)
            else:
                self._socket = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
            self._stream = self._socket.makefile("rwb")
            self.hello = self._read()
            if not isinstance(self.hello, dict) or "protocol" not in self.hello:
                raise ProtocolError(f"server sent no hello frame: {self.hello!r}")
        except BaseException:
            self.close()  # a failed connect must not leak its socket
            raise

    def close(self) -> None:
        # shut the connection down before closing it: a process forked from
        # this one (a worker of a pool or of an in-process server) holds a
        # copy of the socket, and close() alone would keep the server from
        # seeing EOF until that copy is gone
        if self._socket is not None:
            try:
                self._socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for closer in (self._stream, self._socket):
            if closer is None:
                continue
            try:
                closer.close()
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------------
    def _recover(self, error: BaseException) -> None:
        """Reconnect with doubling delays, resubmit pending ids.

        Raises :class:`ServeError` when every retry fails; otherwise the
        connection is fresh and every journaled-unanswered request has been
        resubmitted under its original id.
        """
        if not self.reconnect:
            raise error
        self.close()
        delay = RECONNECT_DELAY_S
        last: BaseException = error
        for _ in range(RECONNECT_ATTEMPTS):
            time.sleep(delay)
            delay = min(delay * 2, RECONNECT_MAX_DELAY_S)
            try:
                self._connect()
            except _RETRYABLE as connect_error:
                last = connect_error
                continue
            self.reconnects += 1
            try:
                for request in list(self._pending.values()):
                    write_frame_blocking(self._stream, request)
                    self.resubmitted += 1
            except _RETRYABLE as resubmit_error:
                last = resubmit_error
                self.close()
                continue
            return
        raise ServeError(
            f"reconnect failed after {RECONNECT_ATTEMPTS} attempt(s): {last}"
        ) from last

    # ------------------------------------------------------------------
    def _read(self) -> dict:
        frame = read_frame_blocking(self._stream)
        if frame is None:
            raise ConnectionClosed("server closed the connection")
        if not isinstance(frame, dict):
            raise ProtocolError(f"expected an object frame, got {frame!r}")
        return frame

    def _send(self, document: dict) -> None:
        write_frame_blocking(self._stream, document)

    def _read_until(self, op: str, request_id: Optional[str] = None) -> dict:
        if request_id is not None:
            parked = self._parked.pop((op, request_id), None)
            if parked is not None:
                return parked
        while True:
            frame = self._read()
            frame_op = frame.get("op")
            if frame_op == OP_PROGRESS:
                # liveness ticks are ephemeral: observe, never park
                if self.on_progress is not None:
                    self.on_progress(frame)
                continue
            if frame_op == "result":
                self._pending.pop(frame.get("id"), None)
            if frame_op == op and (
                request_id is None or frame.get("id") == request_id
            ):
                return frame
            if frame_op == "rejected" and (
                request_id is None or frame.get("id") == request_id
            ):
                self._pending.pop(frame.get("id"), None)
                raise ServeError(
                    f"request rejected: {frame.get('reason')}", reply=frame
                )
            if frame.get("ok") is False:
                raise ServeError(str(frame.get("error")), reply=frame)
            other_id = frame.get("id")
            if other_id is not None and frame_op:
                self._parked[(frame_op, other_id)] = frame

    # ------------------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Send one verify request; returns the ``accepted`` frame.

        Raises :class:`ServeError` on rejection (``reply["reason"]`` is
        ``"overloaded"`` under admission control, ``"draining"`` during
        shutdown).  Follow with :meth:`result` to block for the verdict.
        A broken connection is reconnected and the request resubmitted
        under the same id (see the module docstring).
        """
        request = dict(request)
        request["op"] = OP_VERIFY
        request.setdefault("id", f"req-{os.urandom(6).hex()}")
        request_id = request["id"]
        self._pending[request_id] = request
        sent = False
        while True:
            try:
                if not sent:
                    self._send(request)
                    sent = True
                return self._read_until("accepted", request_id)
            except ServeError as error:
                if isinstance(error, ConnectionClosed):
                    self._recover(error)
                    sent = True  # _recover resubmitted every pending id
                    continue
                self._pending.pop(request_id, None)
                raise
            except _RETRYABLE as error:
                self._recover(error)
                sent = True
                continue

    def result(self, request_id: str) -> dict:
        """Block for the ``result`` frame of one accepted request."""
        while True:
            try:
                reply = self._read_until("result", request_id)
                self._pending.pop(request_id, None)
                return reply
            except ConnectionClosed as error:
                if request_id not in self._pending:
                    # answered before we could finish reading: the parked
                    # copy (if any) was consumed above; nothing to wait on
                    raise
                self._recover(error)
            except _RETRYABLE as error:
                self._recover(error)

    def verify(self, **request) -> dict:
        """Submit one request and block for its result (the common path)."""
        accepted = self.submit(request)
        return self.result(accepted["id"])

    def ping(self) -> dict:
        self._send({"op": OP_PING})
        return self._read_until("pong")

    def stats(self) -> dict:
        self._send({"op": OP_STATS})
        return self._read_until("stats")["stats"]

    def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        self._send({"op": OP_DRAIN})
        return self._read_until("draining")
