"""Tests for job specifications and their content addressing."""

from __future__ import annotations

import json

import pytest

from repro.service.jobs import (
    JobSpec,
    JobSpecError,
    build_builtin_circuit,
    build_strategy,
    load_job_specs,
)

FIDELITY_ARGS = (("final_fidelity", 0.5), ("round_fidelity", 0.9))


class TestBuildBuiltinCircuit:
    def test_shor(self):
        circuit = build_builtin_circuit("shor_15_2")
        assert circuit.name == "shor_15_2"
        assert circuit.num_qubits == 12

    def test_supremacy(self):
        circuit = build_builtin_circuit("qsup_2x2_4_0")
        assert circuit.num_qubits == 4

    @pytest.mark.parametrize(
        "name", ["wat_1_2", "shor_15", "qsup_2x2_4", "shor_a_b"]
    )
    def test_rejects_unknown_or_malformed(self, name):
        with pytest.raises(ValueError):
            build_builtin_circuit(name)


class TestBuildStrategy:
    @pytest.mark.parametrize(
        "kind,args",
        [
            ("exact", {}),
            ("memory", {"threshold": 64, "round_fidelity": 0.95}),
            ("fidelity", dict(FIDELITY_ARGS)),
            ("adaptive", dict(FIDELITY_ARGS)),
            ("size_cap", {"max_nodes": 128}),
        ],
    )
    def test_builds_every_kind(self, kind, args):
        assert build_strategy(kind, args).describe()

    def test_coerces_integer_arguments(self):
        strategy = build_strategy(
            "memory", {"threshold": 64.0, "round_fidelity": 0.9}
        )
        assert strategy.initial_threshold == 64

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_strategy("bogus")

    def test_exact_rejects_arguments(self):
        with pytest.raises(ValueError):
            build_strategy("exact", {"threshold": 4})

    def test_unknown_argument_is_a_spec_error(self):
        with pytest.raises(JobSpecError, match="'memory'.*'bogus'"):
            build_strategy(
                "memory",
                {"threshold": 8, "round_fidelity": 0.9, "bogus": 1},
            )

    def test_missing_argument_is_a_spec_error(self):
        with pytest.raises(JobSpecError, match="'fidelity'.*round_fidelity"):
            build_strategy("fidelity", {"final_fidelity": 0.5})

    @pytest.mark.parametrize("kind", ["memory", "fidelity", "adaptive"])
    def test_spec_carrying_measure_fidelity_is_rejected(self, kind):
        args = (
            (("threshold", 8.0), ("round_fidelity", 0.9))
            if kind == "memory"
            else FIDELITY_ARGS
        )
        spec = JobSpec(
            "builtin:shor_15_2",
            kind,
            args + (("measure_fidelity", 0.0),),
        )
        with pytest.raises(
            JobSpecError, match=f"'{kind}'.*'measure_fidelity'"
        ):
            spec.build_strategy()


class TestContentHash:
    def test_stable_across_argument_order(self):
        a = JobSpec("builtin:shor_15_2", "fidelity", FIDELITY_ARGS)
        b = JobSpec(
            "builtin:shor_15_2",
            "fidelity",
            tuple(reversed(FIDELITY_ARGS)),
        )
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_simulation_fields(self):
        base = JobSpec("builtin:shor_15_2", "fidelity", FIDELITY_ARGS)
        assert (
            base.content_hash()
            != JobSpec(
                "builtin:shor_15_7", "fidelity", FIDELITY_ARGS
            ).content_hash()
        )
        assert (
            base.content_hash()
            != JobSpec("builtin:shor_15_2", "exact").content_hash()
        )
        assert (
            base.content_hash()
            != JobSpec(
                "builtin:shor_15_2",
                "fidelity",
                (("final_fidelity", 0.25), ("round_fidelity", 0.9)),
            ).content_hash()
        )

    def test_insensitive_to_operational_fields(self):
        base = JobSpec("builtin:shor_15_2", "fidelity", FIDELITY_ARGS)
        variants = [
            base.with_overrides(shots=100),
            base.with_overrides(seed=7),
            base.with_overrides(max_seconds=3.0),
            base.with_overrides(checkpoint_interval=10),
            base.with_overrides(label="renamed"),
        ]
        for variant in variants:
            assert variant.content_hash() == base.content_hash()


class TestSpecValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            JobSpec("builtin:shor_15_2", strategy="bogus")

    def test_rejects_negative_shots(self):
        with pytest.raises(ValueError):
            JobSpec("builtin:shor_15_2", shots=-1)

    def test_rejects_negative_checkpoint_interval(self):
        with pytest.raises(ValueError):
            JobSpec("builtin:shor_15_2", checkpoint_interval=-1)

    def test_rejects_a_negative_seed(self):
        """The sampler's generator takes no negative seed, so one would
        raise out of ``execute_job`` after the result is stored."""
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            JobSpec("builtin:shor_15_2", seed=-1, shots=4)

    @pytest.mark.parametrize(
        "name, field",
        [
            ("shots", {"shots": 2.5}),
            ("shots", {"shots": True}),
            ("shots", {"shots": "4"}),
            ("seed", {"seed": "x", "shots": 4}),
            ("seed", {"seed": 1.0}),
            ("seed", {"seed": False}),
            ("checkpoint_interval", {"checkpoint_interval": 2.5}),
            ("checkpoint_interval", {"checkpoint_interval": None}),
        ],
    )
    def test_integer_fields_must_be_ints(self, name, field):
        """A float, bool or string here would raise out of
        ``execute_job`` after the result is stored (``shots``, ``seed``)
        or checkpoint at an odd cadence (``checkpoint_interval``)."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            JobSpec("builtin:shor_15_2", **field)

    @pytest.mark.parametrize(
        "max_seconds", ["5", float("nan"), float("inf"), -1, True]
    )
    def test_rejects_a_bad_time_budget(self, max_seconds):
        """A string would fail later in the worker, NaN would disable
        the budget, and a negative one would stop every attempt at op 0."""
        with pytest.raises(ValueError, match="^max_seconds must be"):
            JobSpec("builtin:shor_15_2", max_seconds=max_seconds)

    @pytest.mark.parametrize("max_seconds", [None, 0, 0.0, 2.5])
    def test_accepts_none_zero_and_finite_budgets(self, max_seconds):
        spec = JobSpec("builtin:shor_15_2", max_seconds=max_seconds)
        assert spec.max_seconds == max_seconds

    def test_from_dict_rejects_a_string_budget(self):
        with pytest.raises(ValueError, match="max_seconds"):
            JobSpec.from_dict(
                {"circuit": "builtin:shor_15_2", "max_seconds": "5"}
            )


class TestSerialization:
    def test_round_trip(self):
        spec = JobSpec(
            "builtin:qsup_2x2_4_0",
            "memory",
            (("threshold", 16), ("round_fidelity", 0.9)),
            shots=32,
            seed=5,
            max_seconds=2.5,
            checkpoint_interval=10,
            label="grid",
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_from_dict_accepts_mapping_args(self):
        spec = JobSpec.from_dict(
            {
                "circuit": "builtin:shor_15_2",
                "strategy": "fidelity",
                "strategy_args": dict(FIDELITY_ARGS),
            }
        )
        assert spec.strategy_args == FIDELITY_ARGS

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict(
                {"circuit": "builtin:shor_15_2", "bogus": 1}
            )

    def test_from_source_inlines_qasm(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        spec = JobSpec.from_source(str(qasm))
        assert spec.circuit.startswith("OPENQASM")
        assert spec.label == str(qasm)
        circuit = spec.build_circuit()
        assert circuit.num_qubits == 2 and len(circuit) == 2


class TestLoadJobSpecs:
    def test_plain_list(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"circuit": "builtin:shor_15_2"}]))
        specs = load_job_specs(str(path))
        assert [spec.circuit for spec in specs] == ["builtin:shor_15_2"]

    def test_jobs_object(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps({"jobs": [{"circuit": "builtin:shor_15_2"}]})
        )
        assert len(load_job_specs(str(path))) == 1

    def test_file_reference_is_inlined(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"circuit": "file:bell.qasm"}]))
        (spec,) = load_job_specs(str(path))
        assert spec.circuit.startswith("OPENQASM")
        assert spec.label == "bell.qasm"

    @pytest.mark.parametrize(
        "document", ["42", '{"nope": []}', '[["not", "an", "object"]]']
    )
    def test_rejects_malformed_documents(self, tmp_path, document):
        path = tmp_path / "jobs.json"
        path.write_text(document)
        with pytest.raises(ValueError):
            load_job_specs(str(path))


class TestJobSpecError:
    """I/O-level spec failures surface as typed, permanent errors."""

    def test_missing_batch_file_names_its_path(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(JobSpecError, match="absent.json") as excinfo:
            load_job_specs(path)
        assert excinfo.value.path == path

    def test_undecodable_batch_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_bytes(b"\xff\xfe garbage")
        with pytest.raises(JobSpecError, match="not UTF-8"):
            load_job_specs(str(path))

    def test_invalid_batch_json(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{not json")
        with pytest.raises(JobSpecError, match="not valid JSON"):
            load_job_specs(str(path))

    def test_missing_referenced_qasm_names_the_reference(self, tmp_path):
        batch = tmp_path / "jobs.json"
        batch.write_text(json.dumps([{"circuit": "file:missing.qasm"}]))
        with pytest.raises(JobSpecError, match="missing.qasm") as excinfo:
            load_job_specs(str(batch))
        assert excinfo.value.path.endswith("missing.qasm")

    def test_missing_source_file_for_from_source(self, tmp_path):
        path = str(tmp_path / "absent.qasm")
        with pytest.raises(JobSpecError, match="cannot read"):
            JobSpec.from_source(path)

    def test_is_still_a_value_error(self, tmp_path):
        """Existing ``except (OSError, ValueError)`` callers keep
        catching spec problems."""
        with pytest.raises(ValueError):
            load_job_specs(str(tmp_path / "absent.json"))

    def test_classifies_permanent(self, tmp_path):
        from repro.faults.errors import PERMANENT, classify_exception

        try:
            load_job_specs(str(tmp_path / "absent.json"))
        except JobSpecError as error:
            assert classify_exception(error) == PERMANENT
