"""Blocking client for the simulation daemon (stdlib only).

Opens one connection per request — the protocol is stateless per line,
and the daemon's handler threads are cheap — so the client needs no
connection lifecycle of its own and is trivially safe to share across
threads.

Robustness contract (the cluster router leans on this):

* **Bounded reads.**  A response is read at most
  :data:`~repro.serve.protocol.MAX_LINE_BYTES` deep; a peer that
  streams garbage without a newline raises
  :class:`~repro.serve.protocol.ProtocolError` instead of growing a
  buffer without bound.
* **Typed errors.**  Every malformed response — torn line (EOF before
  the newline), oversized frame, invalid JSON — surfaces as
  :class:`ProtocolError`, never a raw ``json.JSONDecodeError``.
* **Explicit timeouts.**  The socket timeout covers connect, send, and
  every read; expiry raises :class:`TimeoutError` (``socket.timeout``
  is an alias) rather than blocking forever.
* **Reconnect-once.**  Idempotent operations (``ping`` / ``status`` /
  ``metrics`` / ``jobs``) retry exactly once on a reset connection —
  a daemon restarting mid-request answers the retry.  Non-idempotent
  operations (``submit``, ``steal``, ``drain``) never retry here; the
  caller owns that decision because a retry could double-apply.
"""

from __future__ import annotations

import socket

from ..service.jobs import JobSpec
from .protocol import (
    DEFAULT_TENANT,
    MAX_LINE_BYTES,
    ProtocolError,
    Submission,
    decode_message,
    encode_message,
)

#: Connection-level failures that a single reconnect may fix: the peer
#: closed or reset the connection (restart, torn write), or refused it
#: during a listener handoff.
_RECONNECT_ERRORS = (
    ConnectionResetError,
    ConnectionRefusedError,
    BrokenPipeError,
)


class ServeError(RuntimeError):
    """The daemon rejected a request (``ok: false``).

    Attributes:
        error: The daemon's error code (``"shed"``, ``"breaker_open"``,
            ``"draining"``, ...).
        response: The full response document.
    """

    def __init__(self, response: dict):
        self.error = str(response.get("error", "unknown"))
        self.response = response
        super().__init__(self.error)

    @property
    def retry_after(self) -> float | None:
        """Suggested backoff in seconds, when the daemon offered one."""
        value = self.response.get("retry_after")
        return float(value) if value is not None else None


class ServeClient:
    """Talk to a :class:`repro.serve.daemon.SimDaemon` (or the cluster
    router — same protocol).

    Args:
        socket_path: Unix socket the daemon listens on, or
        host / port: its TCP address.
        timeout: Per-request socket timeout (None = block forever).
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = 60.0,
    ) -> None:
        if socket_path is None and not port:
            raise ValueError("need a socket_path or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            connection.settimeout(self.timeout)
            try:
                connection.connect(self.socket_path)
            except BaseException:
                connection.close()
                raise
            return connection
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _exchange(self, message: dict) -> dict:
        """One connect / send / bounded-read / parse round trip."""
        with self._connect() as connection:
            connection.sendall(encode_message(message))
            chunks = bytearray()
            while not chunks.endswith(b"\n"):
                if len(chunks) > MAX_LINE_BYTES:
                    raise ProtocolError(
                        "response exceeds MAX_LINE_BYTES without a "
                        "newline"
                    )
                chunk = connection.recv(65536)
                if not chunk:
                    break
                chunks.extend(chunk)
        if not chunks:
            raise ConnectionResetError("daemon closed the connection")
        if not chunks.endswith(b"\n"):
            # EOF mid-line: the peer died (or tore the write) before
            # finishing the frame.  Typed, so callers can distinguish a
            # torn response from a rejection.
            raise ProtocolError(
                f"torn response ({len(chunks)} bytes, no newline)"
            )
        return decode_message(bytes(chunks))

    def request(self, message: dict, idempotent: bool = False) -> dict:
        """Send one request; return the ``ok: true`` response.

        Args:
            message: The protocol request object.
            idempotent: Retry exactly once on a reset/refused
                connection.  Only safe for requests whose double
                delivery is harmless (reads; never ``submit``).

        Raises:
            ServeError: On an ``ok: false`` response.
            ProtocolError: On a torn, oversized, or non-JSON response.
            TimeoutError: When the socket timeout expires.
            ConnectionError / OSError: When the daemon is unreachable.
        """
        try:
            response = self._exchange(message)
        except _RECONNECT_ERRORS:
            if not idempotent:
                raise
            response = self._exchange(message)
        if not response.get("ok"):
            raise ServeError(response)
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"}, idempotent=True)

    def submit(
        self,
        spec: "JobSpec | dict",
        priority: int = 0,
        tenant: str | None = None,
        soft_timeout: float | None = None,
        hard_timeout: float | None = None,
    ) -> dict:
        """Submit one job; a spec given as a dict is parsed here first.

        Raises:
            ValueError: When ``spec`` is a dict :meth:`JobSpec.from_dict`
                rejects.
            ServeError: On a rejection (``shed``, ``bad submit: ...``).
        """
        submission = Submission(
            spec if isinstance(spec, JobSpec) else JobSpec.from_dict(spec),
            tenant or DEFAULT_TENANT,
            priority,
            soft_timeout,
            hard_timeout,
        )
        return self.request({"op": "submit", **submission.to_message()})

    def status(self, job_id: str) -> dict:
        return self.request(
            {"op": "status", "job_id": job_id}, idempotent=True
        )

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        return self.request(
            {"op": "wait", "job_id": job_id, "timeout": timeout}
        )

    def metrics(self) -> dict:
        return self.request({"op": "metrics"}, idempotent=True)

    def jobs(self) -> dict:
        return self.request({"op": "jobs"}, idempotent=True)

    def steal(self, max_jobs: int) -> dict:
        return self.request({"op": "steal", "max_jobs": max_jobs})

    def drain(self, shard: str | None = None) -> dict:
        message: dict = {"op": "drain"}
        if shard is not None:
            message["shard"] = shard
        return self.request(message)
