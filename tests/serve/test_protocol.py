"""Tests for the JSON-lines wire protocol."""

from __future__ import annotations

import io

import pytest

from repro.serve.protocol import (
    DEFAULT_TENANT,
    MAX_LINE_BYTES,
    ProtocolError,
    Submission,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_submission,
    read_message,
    write_message,
)
from repro.service.jobs import JobSpec


class TestCodec:
    def test_roundtrip(self):
        message = {"op": "submit", "spec": {"circuit": "x"}, "priority": 3}
        assert decode_message(encode_message(message)) == message

    def test_encoded_form_is_one_line(self):
        wire = encode_message({"op": "ping", "note": "a\nb"})
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json}\n")

    def test_rejects_non_object_frames(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe\n")


SPEC = JobSpec(circuit="builtin:shor_15_2")


def _entry(**fields) -> dict:
    return {"spec": SPEC.to_dict(), **fields}


class TestParseSubmission:
    def test_defaults(self):
        assert parse_submission({"op": "submit", "spec": SPEC.to_dict()}) == (
            SPEC,
            DEFAULT_TENANT,
            0,
            None,
            None,
        )

    def test_accepts_integer_priority_and_finite_timeouts(self):
        submission = parse_submission(
            _entry(priority=3, soft_timeout=0.0, hard_timeout=60)
        )
        assert submission == (SPEC, DEFAULT_TENANT, 3, 0.0, 60.0)
        assert isinstance(submission.hard_timeout, float)

    @pytest.mark.parametrize("tenant", [None, ""])
    def test_an_absent_tenant_is_the_default(self, tenant):
        assert parse_submission(_entry(tenant=tenant)).tenant == (
            DEFAULT_TENANT
        )

    @pytest.mark.parametrize(
        "field",
        [
            {"priority": "3"},
            {"priority": 2.5},
            {"priority": True},
            {"priority": None},
            {"soft_timeout": "soon"},
            {"soft_timeout": -0.5},
            {"hard_timeout": float("nan")},
            {"hard_timeout": float("inf")},
            {"hard_timeout": False},
        ],
    )
    def test_rejects_malformed_fields(self, field):
        with pytest.raises(ValueError, match="^bad submit: "):
            parse_submission(_entry(**field))

    @pytest.mark.parametrize("spec", [None, "builtin:shor_15_2", [1]])
    def test_requires_a_spec_object(self, spec):
        with pytest.raises(ValueError, match="^submit requires a spec object$"):
            parse_submission({"spec": spec})

    @pytest.mark.parametrize(
        "spec",
        [
            {"circuit": "builtin:shor_15_2", "bogus": 1},
            {"circuit": "builtin:shor_15_2", "shots": 2.5},
            {"circuit": "builtin:shor_15_2", "max_seconds": "5"},
        ],
    )
    def test_a_rejected_spec_is_a_bad_spec(self, spec):
        with pytest.raises(ValueError, match="^bad spec: "):
            parse_submission({"spec": spec})


class TestSubmissionEncoding:
    @pytest.mark.parametrize(
        "submission",
        [
            Submission(SPEC),
            Submission(SPEC, "acme", -2, 0.0, 60.0),
            Submission(
                JobSpec(
                    circuit="builtin:shor_21_2",
                    strategy="fidelity",
                    strategy_args=(
                        ("final_fidelity", 0.5),
                        ("round_fidelity", 0.9),
                    ),
                    shots=8,
                    seed=3,
                ),
                "beta",
                5,
                None,
                1.5,
            ),
        ],
    )
    def test_round_trip(self, submission):
        message = submission.to_message()
        assert parse_submission(message) == submission
        # The encoding is plain JSON: it survives the wire unchanged.
        assert parse_submission(decode_message(encode_message(message))) == (
            submission
        )

    def test_defaults_are_left_out(self):
        assert Submission(SPEC).to_message() == {
            "spec": SPEC.to_dict(),
            "priority": 0,
        }


class TestStreamIO:
    def test_read_returns_none_on_eof(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_read_blank_line_is_empty_message(self):
        assert read_message(io.BytesIO(b"\n")) == {}

    def test_read_rejects_oversized_frames(self):
        stream = io.BytesIO(b"x" * (MAX_LINE_BYTES + 10))
        with pytest.raises(ProtocolError):
            read_message(stream)

    def test_write_then_read_roundtrips(self):
        stream = io.BytesIO()
        write_message(stream, {"op": "ping"})
        write_message(stream, {"op": "drain"})
        stream.seek(0)
        assert read_message(stream) == {"op": "ping"}
        assert read_message(stream) == {"op": "drain"}
        assert read_message(stream) is None


class TestResponseBuilders:
    def test_ok_response(self):
        assert ok_response(job_id="j-1") == {"ok": True, "job_id": "j-1"}

    def test_error_response_carries_extras(self):
        response = error_response("shed", retry_after=1.5)
        assert response == {
            "ok": False,
            "error": "shed",
            "retry_after": 1.5,
        }
