"""Wire protocol of the simulation daemon: JSON lines over a stream.

One request per line, one response per line, UTF-8, no framing beyond
the newline — debuggable with ``nc``/``socat`` and implementable from
any language with a JSON library.  A connection may issue any number of
requests sequentially (the server answers in order).

Requests are objects with an ``op`` field::

    {"op": "ping"}
    {"op": "submit", "spec": {...JobSpec...}, "priority": 1,
     "tenant": "team-a", "soft_timeout": 30.0, "hard_timeout": 60.0}
    {"op": "status", "job_id": "j-000042"}
    {"op": "wait", "job_id": "j-000042", "timeout": 10.0}
    {"op": "metrics"}
    {"op": "jobs"}
    {"op": "steal", "max_jobs": 4}
    {"op": "drain"}

The same protocol is spoken by a single daemon and by the cluster
router (:mod:`repro.serve.router`) — a client cannot tell, and does not
need to know, whether it is talking to one shard or a sharded tier.
``jobs`` (bulk job statuses) and ``steal`` (hand queued jobs back for
re-admission elsewhere) exist for the router's supervision and
work-stealing loops; the router additionally accepts a ``shard``
argument on ``drain`` to drain one shard while redistributing its
queue.

Responses always carry ``ok``.  Rejections (``ok: false``) carry
``error`` — notably ``"shed"`` (queue full; ``retry_after`` suggests a
backoff) and ``"breaker_open"`` (the spec keeps failing permanently;
``retry_after`` is the breaker cooldown remaining).
"""

from __future__ import annotations

import json
from typing import IO, NamedTuple

from ..service.jobs import check_seconds

#: Maximum accepted request line (a spec carries full QASM text, so the
#: bound is generous; beyond it the connection is dropped as malformed).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame on the wire (not valid JSON, not an object)."""


class Submission(NamedTuple):
    """The validated admission fields of a ``submit`` request."""

    priority: int
    soft_timeout: float | None
    hard_timeout: float | None


def parse_submission(message: dict) -> Submission:
    """Validate a ``submit`` request's priority and timeouts.

    The daemon and the router both call this before any job record
    exists, so a malformed field is rejected without leaving a record
    behind.

    Raises:
        ValueError: ``bad submit: ...`` for a priority that is not an
            integer, or a timeout that is not a finite number >= 0
            (:func:`~repro.service.jobs.check_seconds`).
    """
    priority = message.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ValueError(
            f"bad submit: priority must be an integer, got {priority!r}"
        )
    try:
        timeouts = [
            check_seconds(name, message.get(name))
            for name in ("soft_timeout", "hard_timeout")
        ]
    except ValueError as error:
        raise ValueError(f"bad submit: {error}") from None
    return Submission(priority, *timeouts)


def encode_message(message: dict) -> bytes:
    """Serialize one protocol message to its wire form (line + newline)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line into a message object.

    Raises:
        ProtocolError: When the line is not a JSON object.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def read_message(stream: IO[bytes]) -> dict | None:
    """Read one message from a binary stream; None on clean EOF.

    Raises:
        ProtocolError: On an oversized or malformed frame.
    """
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("frame exceeds MAX_LINE_BYTES")
    if line.strip() == b"":
        return {}
    return decode_message(line)


def write_message(stream: IO[bytes], message: dict) -> None:
    """Write one message to a binary stream and flush it."""
    stream.write(encode_message(message))
    stream.flush()


def error_response(error: str, **extra: object) -> dict:
    """Build a standard rejection response."""
    response: dict = {"ok": False, "error": error}
    response.update(extra)
    return response


def ok_response(**extra: object) -> dict:
    """Build a standard success response."""
    response: dict = {"ok": True}
    response.update(extra)
    return response
