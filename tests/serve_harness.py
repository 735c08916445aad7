"""The harness for the in-process server tests (``test_serve``).

A :class:`~repro.serve.VerifyServer` runs its asyncio loop in a daemon
thread of the test process.
"""

import asyncio
import threading
import time

from repro.serve import ServeClient, VerifyServer

#: how long entering waits for the service to accept a connection
READY_TIMEOUT_S = 30.0


class RunningServer:
    """A server serving on its unix socket from a daemon thread.

    Entering returns once a client can connect and read the hello frame.
    The socket path appears when the listener binds, which is before it
    listens, so the path alone does not mean ready: refused or absent
    connects are retried until the deadline, and a server thread that died
    fails the wait at once with its exception.
    """

    def __init__(self, config):
        self.server = VerifyServer(config)
        self.error = None
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        try:
            asyncio.run(self.server.serve_forever())
        except BaseException as error:  # noqa: BLE001 - reported by __enter__
            self.error = error
            raise

    def __enter__(self):
        self.thread.start()
        path = self.server.config.socket_path
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if not self.thread.is_alive():
                raise RuntimeError("the server thread died before it listened") from (
                    self.error
                )
            try:
                probe = ServeClient(socket_path=path, timeout=READY_TIMEOUT_S, reconnect=False)
                probe.close()
                return self.server
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"the server accepted no connection on {path}")
            time.sleep(0.02)

    def __exit__(self, *exc_info):
        self.server.request_shutdown()
        self.thread.join(timeout=60.0)
        return False
