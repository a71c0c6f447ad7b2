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

A ``submit`` carries one :class:`Submission`; parked-queue files and
``steal`` answers hold the same keys, read by :func:`parse_submission`
and written by :meth:`Submission.to_message`.

Responses always carry ``ok``.  Rejections (``ok: false``) carry
``error`` — notably ``"shed"`` (queue full; ``retry_after`` suggests a
backoff) and ``"breaker_open"`` (the spec keeps failing permanently;
``retry_after`` is the breaker cooldown remaining).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from typing import IO, NamedTuple

from ..faults.errors import QuorumLost
from ..service.jobs import JobSpec, check_seconds
from ..service.store import ArtifactStore

#: Maximum accepted request line (a spec carries full QASM text, so the
#: bound is generous; beyond it the connection is dropped as malformed).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Tenant recorded for submissions that carry no ``tenant`` field.
DEFAULT_TENANT = "default"


class ProtocolError(ValueError):
    """A malformed frame on the wire (not valid JSON, not an object)."""


class Submission(NamedTuple):
    """One validated submission: what every submit, park, steal and
    forward carries.

    ``spec`` holds the job's Lemma-1 budget (``f_final``, ``f_round``);
    the rest is admission metadata.  :func:`parse_submission` is the
    one reader of the format and :meth:`to_message` its one writer.
    """

    spec: JobSpec
    tenant: str = DEFAULT_TENANT
    priority: int = 0
    soft_timeout: float | None = None
    hard_timeout: float | None = None

    def to_message(self) -> dict:
        """The submit/park/steal keys (``op`` and extras are the caller's).

        A default tenant and an unset timeout are left out; every
        reader takes an absent key as its default.
        """
        message = {"spec": self.spec.to_dict(), "priority": self.priority}
        if self.tenant != DEFAULT_TENANT:
            message["tenant"] = self.tenant
        if self.soft_timeout is not None:
            message["soft_timeout"] = self.soft_timeout
        if self.hard_timeout is not None:
            message["hard_timeout"] = self.hard_timeout
        return message


def parse_submission(message: dict) -> Submission:
    """Validate a ``submit`` request, a parked entry or a stolen job.

    The daemon and the router both call this before any job record
    exists, so a malformed field is rejected without leaving a record
    behind.  A missing or empty ``tenant`` reads as
    :data:`DEFAULT_TENANT`.

    Raises:
        ValueError: ``submit requires a spec object`` when ``spec`` is
            not an object; ``bad spec: ...`` when
            :meth:`JobSpec.from_dict` rejects it; ``bad submit: ...``
            for a priority that is not an integer, or a timeout that is
            not a finite number >= 0
            (:func:`~repro.service.jobs.check_seconds`).
    """
    spec_doc = message.get("spec")
    if not isinstance(spec_doc, dict):
        raise ValueError("submit requires a spec object")
    try:
        spec = JobSpec.from_dict(spec_doc)
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad spec: {error}") from None
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
    tenant = str(message.get("tenant") or DEFAULT_TENANT)
    return Submission(spec, tenant, priority, *timeouts)


def park_submissions(
    store: ArtifactStore,
    name: str,
    submissions: list[Submission],
    log: Callable[[str], None],
) -> None:
    """Persist ``submissions`` as the parked-jobs file ``name``.

    The daemon parks its queue at a drain and the router its unowned
    jobs at shutdown; the next start takes them back with
    :func:`take_parked_submissions`.  A failed write is logged: the
    caller is shutting down and has nowhere else to put the jobs.
    """
    if not submissions:
        return
    try:
        path = store.park_jobs(name, [s.to_message() for s in submissions])
    except (OSError, QuorumLost) as error:
        log(f"failed to park {len(submissions)} job(s): {error}")
        return
    log(f"parked {len(submissions)} job(s) to {path} for the next start")


def take_parked_submissions(
    store: ArtifactStore, name: str, log: Callable[[str], None]
) -> list[Submission]:
    """Take back the parked-jobs file ``name``, each entry parsed.

    A malformed entry is logged and dropped alone; an unreadable file
    is logged and reads as empty.
    """
    try:
        entries = store.take_parked_jobs(name)
    except OSError as error:
        log(f"ignoring unreadable parked-job file: {error}")
        return []
    submissions = []
    for entry in entries:
        try:
            submissions.append(parse_submission(entry))
        except ValueError as error:
            log(f"dropping malformed parked job: {error}")
    if submissions:
        log(f"restored {len(submissions)} parked job(s) from {name}")
    return submissions


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
