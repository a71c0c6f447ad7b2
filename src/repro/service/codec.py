"""The checksummed stored form shared by checkpoints and leases.

The payload, with ``format`` and ``version``, is dumped once as sorted
compact JSON; the SHA-256 of those bytes is spliced in as the first key
(``checksum`` sorts before every other key, so the text is also the
sorted compact JSON of the whole document).  A read verifies format,
version, checksum, field types and the recorded ``job_hash`` before a
caller sees a field.  The artifact store is the only caller.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from typing import Any

from ..faults.errors import ArtifactIntegrityError

#: Document key carrying the SHA-256 over the rest of the document.
CHECKSUM_KEY = "checksum"


@dataclass(frozen=True)
class DocumentKind:
    """One per-job document: the frozen dataclass ``value_type`` stored, its
    ``format`` and only accepted ``version``, the JSON types of its
    ``fields`` (the dataclass fields), and the integrity ``error`` a
    failing document raises."""

    value_type: type
    format: str
    version: int
    fields: Mapping[str, type | tuple[type, ...]]
    error: type[ArtifactIntegrityError]

    def rejected(
        self, job_hash: str, path: str, problem: str
    ) -> ArtifactIntegrityError:
        """The error for ``job_hash``'s document at ``path``."""
        noun = self.value_type.__name__.lower()
        return self.error(f"{noun} for {job_hash[:12]} {problem}", path=path)

    def encode(self, value: Any) -> str:
        """The stored text of ``value``: one dump, checksum spliced in."""
        canonical = json.dumps(
            {"format": self.format, "version": self.version, **vars(value)},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = sha256(canonical.encode()).hexdigest()
        return f'{{"{CHECKSUM_KEY}":"{digest}",{canonical[1:]}'

    def decode(self, raw: bytes, job_hash: str, path: str) -> Any:
        """Verify the stored bytes of ``job_hash``'s document and rebuild it.

        The checksum covers the sorted compact JSON of every other key,
        so any writer's key order or whitespace verifies.

        Raises:
            ArtifactIntegrityError: The kind's ``error``, for bytes that
                are not JSON, a wrong format or version, a missing or
                failing checksum, a missing or mistyped field, or a
                document recorded for another job (*stale*).
        """
        rejected = partial(self.rejected, job_hash, path)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise rejected(f"is unreadable: {error}") from error
        if (
            not isinstance(document, dict)
            or document.get("format") != self.format
        ):
            raise rejected(f"is not a {self.format} document")
        if document.get("version") != self.version:
            raise rejected(
                f"has unsupported version {document.get('version')!r}"
            )
        recorded = document.pop(CHECKSUM_KEY, None)
        if recorded is None:
            raise rejected("carries no checksum")
        canonical = json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )
        if recorded != sha256(canonical.encode()).hexdigest():
            raise rejected("fails its embedded SHA-256 check")
        for name, kind in self.fields.items():
            if not isinstance(document.get(name), kind):
                raise rejected(f"has a missing or mistyped {name!r}")
        if document["job_hash"] != job_hash:
            raise rejected(
                f"is stale: recorded for job {document['job_hash'][:12]}"
            )
        return self.value_type(
            **{name: document[name] for name in self.fields}
        )
