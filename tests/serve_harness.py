"""The harness for the server tests (``test_serve``, ``test_serve_soak``).

A :class:`~repro.serve.VerifyServer` runs its asyncio loop in a daemon
thread of the test process; :func:`wait_until_listening` also serves the
soak's server subprocesses.
"""

import asyncio
import threading
import time

from repro.serve import ServeClient, VerifyServer

#: how long a server may take to accept its first connection
READY_TIMEOUT_S = 30.0


def wait_until_listening(path, check_alive):
    """Return once a client can connect to ``path`` and read the hello frame.

    The socket path appears when the listener binds, which is before it
    listens, so the path alone does not mean ready: refused or absent
    connects are retried until the deadline.  ``check_alive()`` runs before
    each try and raises when the server is gone, which fails the wait at
    once.
    """
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        check_alive()
        try:
            ServeClient(socket_path=path, timeout=READY_TIMEOUT_S, reconnect=False).close()
            return
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"the server accepted no connection on {path}")
        time.sleep(0.02)


class RunningServer:
    """A server serving on its unix socket from a daemon thread.

    Entering returns once the server listens (:func:`wait_until_listening`);
    a server thread that died fails the wait at once with its exception.
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

    def _check_alive(self):
        if not self.thread.is_alive():
            raise RuntimeError("the server thread died before it listened") from (
                self.error
            )

    def __enter__(self):
        self.thread.start()
        wait_until_listening(self.server.config.socket_path, self._check_alive)
        return self.server

    def __exit__(self, *exc_info):
        self.server.request_shutdown()
        self.thread.join(timeout=60.0)
        return False
