"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "x.qasm"])
        assert args.strategy == "exact"
        assert args.threshold == 4096

    def test_shor_defaults(self):
        args = build_parser().parse_args(["shor", "15"])
        assert args.modulus == 15
        assert args.base == 2
        assert args.final_fidelity == 0.5


class TestRunCommand:
    def test_run_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
        )
        code = main(["run", str(qasm), "--shots", "10", "--seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "max_dd" in output
        assert "top outcomes" in output

    def test_run_builtin_supremacy(self, capsys):
        code = main(
            [
                "run",
                "builtin:qsup_2x2_4_0",
                "--strategy",
                "memory",
                "--threshold",
                "4",
                "--round-fidelity",
                "0.9",
            ]
        )
        assert code == 0
        assert "memory" in capsys.readouterr().out

    def test_run_builtin_shor(self, capsys):
        code = main(["run", "builtin:shor_15_2", "--strategy", "fidelity"])
        assert code == 0
        assert "shor_15_2" in capsys.readouterr().out

    def test_unknown_builtin(self):
        with pytest.raises(SystemExit):
            main(["run", "builtin:wat_1_2"])


class TestShorCommand:
    def test_factors_15(self, capsys):
        code = main(["shor", "15", "--base", "2", "--shots", "200"])
        assert code == 0
        output = capsys.readouterr().out
        assert "15 = " in output

    def test_factors_21(self, capsys):
        code = main(["shor", "21", "--base", "2", "--shots", "500"])
        assert code == 0
        output = capsys.readouterr().out
        assert "21 = " in output

    def test_semiclassical_mode(self, capsys):
        code = main(["shor", "33", "--base", "5", "--semiclassical"])
        assert code == 0
        output = capsys.readouterr().out
        assert "33 = " in output
        assert "max DD" in output


class TestEquivCommand:
    def test_equivalent_circuits(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nid q[0];\n")
        code = main(["equiv", str(a), str(b)])
        assert code == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_inequivalent_circuits(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\n")
        code = main(["equiv", str(a), str(b)])
        assert code == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_width_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[3];\nh q[0];\n")
        assert main(["equiv", str(a), str(b)]) == 1
        assert "width" in capsys.readouterr().out

    def test_strict_phase(self, tmp_path, capsys):
        import math

        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        b.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrx({math.pi}) q[0];\n")
        assert main(["equiv", str(a), str(b)]) == 0
        assert "global phase" in capsys.readouterr().out
        assert main(["equiv", str(a), str(b), "--strict-phase"]) == 1


class TestOptimizeCommand:
    def test_reports_reduction(self, tmp_path, capsys):
        source = tmp_path / "c.qasm"
        source.write_text(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n"
        )
        code = main(["optimize", str(source)])
        assert code == 0
        assert "3 -> 1 operations" in capsys.readouterr().out

    def test_writes_output_file(self, tmp_path, capsys):
        source = tmp_path / "c.qasm"
        target = tmp_path / "c_opt.qasm"
        source.write_text(
            "OPENQASM 2.0;\nqreg q[1];\nt q[0];\ntdg q[0];\nx q[0];\n"
        )
        code = main(["optimize", str(source), "-o", str(target)])
        assert code == 0
        text = target.read_text()
        assert "x q[0];" in text and "t q[0];" not in text


class TestTable1Command:
    def test_shor_suite_with_tight_timeout(self, tmp_path, capsys):
        """Exercises the table1 path; the tight timeout keeps it fast and
        also covers the Timeout rendering."""
        code = main(
            [
                "table1",
                "--suite",
                "shor",
                "--timeout",
                "0.75",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Table I (fidelity-driven" in output
        assert "shor_15_2" in output


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "repro-sim" in output
        # Some version string follows the program name.
        assert output.strip().split()[-1][0].isdigit()


@pytest.fixture
def batch_file(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            [
                {"circuit": "builtin:shor_15_2", "shots": 10, "seed": 1},
                {
                    "circuit": "builtin:qsup_2x2_4_0",
                    "strategy": "memory",
                    "strategy_args": {
                        "threshold": 8,
                        "round_fidelity": 0.9,
                    },
                },
            ]
        )
    )
    return path


class TestBatchCommand:
    def test_runs_and_then_serves_cache(self, tmp_path, batch_file, capsys):
        store = str(tmp_path / "store")
        code = main(["batch", str(batch_file), "--store", store])
        assert code == 0
        first = capsys.readouterr().out
        assert "2/2 completed" in first
        assert "(0 from cache" in first

        code = main(["batch", str(batch_file), "--store", store])
        assert code == 0
        second = capsys.readouterr().out
        assert "2/2 completed" in second
        assert "(2 from cache" in second

    def test_no_cache_recomputes(self, tmp_path, batch_file, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", str(batch_file), "--store", store]) == 0
        capsys.readouterr()
        code = main(
            ["batch", str(batch_file), "--store", store, "--no-cache"]
        )
        assert code == 0
        assert "(0 from cache" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot load batch" in capsys.readouterr().err

    def test_empty_batch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text("[]")
        assert main(["batch", str(path)]) == 2

    def test_failing_job_exits_1(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"circuit": "builtin:nope_1_2"}]))
        code = main(
            ["batch", str(path), "--store", str(tmp_path / "store")]
        )
        assert code == 1
        assert "1 errors" in capsys.readouterr().out


class TestJobsCommand:
    def test_ls_empty_store(self, tmp_path, capsys):
        code = main(["jobs", "ls", "--store", str(tmp_path / "store")])
        assert code == 0
        assert "store is empty" in capsys.readouterr().out

    def test_ls_show_gc_lifecycle(self, tmp_path, batch_file, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", str(batch_file), "--store", store]) == 0
        capsys.readouterr()

        assert main(["jobs", "ls", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "shor_15_2" in listing
        prefix = next(
            line.split()[0]
            for line in listing.splitlines()
            if "shor_15_2" in line
        )

        assert main(["jobs", "show", prefix, "--store", store]) == 0
        shown = capsys.readouterr().out
        assert "shor_15_2" in shown
        assert "f_final" in shown

        assert main(["jobs", "gc", "--store", store]) == 0
        assert "0 result(s)" in capsys.readouterr().out
        assert main(["jobs", "gc", "--results", "--store", store]) == 0
        assert "2 result(s)" in capsys.readouterr().out
        assert main(["jobs", "ls", "--store", store]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_show_unknown_hash_exits_1(self, tmp_path, capsys):
        code = main(
            ["jobs", "show", "beef", "--store", str(tmp_path / "store")]
        )
        assert code == 1
        assert capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_builtin(self, capsys):
        code = main(
            [
                "analyze",
                "builtin:shor_15_2",
                "--threshold-probability",
                "0.05",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "outcome entropy" in output
        assert "sharing" in output

    def test_analyze_with_marginal(self, capsys):
        code = main(
            ["analyze", "builtin:qsup_2x2_4_0", "--marginal", "0,1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "marginal over qubits [0, 1]" in output

    def test_analyze_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(
            "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"
            "cx q[1],q[2];\n"
        )
        code = main(["analyze", str(qasm)])
        assert code == 0
        output = capsys.readouterr().out
        # GHZ: exactly two half-probability outcomes, 1 bit of entropy.
        assert "1.0000 bits" in output
        assert "0.5000" in output


class TestMetricsFlag:
    def test_run_with_metrics_writes_report(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "builtin:qsup_2x2_4_0",
                "--strategy",
                "memory",
                "--threshold",
                "4",
                "--round-fidelity",
                "0.9",
                "--metrics",
                str(out),
            ]
        )
        assert code == 0
        assert "wrote metrics report" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["format"] == "repro-metrics"
        assert report["workload"] == "qsup_2x2_4_0"
        assert report["peak_nodes"] > 0
        assert len(report["node_trajectory"]) == report["num_operations"]
        assert "mv" in report["cache"]["caches"]
        assert report["fidelity"]["spent"] == pytest.approx(
            1.0 - report["fidelity"]["estimate"]
        )
        assert sum(
            stat["count"] for stat in report["gate_timing"].values()
        ) == report["num_operations"]


class TestTraceCommand:
    def test_record_then_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "record",
                "builtin:qsup_2x2_4_0",
                "--strategy",
                "memory",
                "--threshold",
                "4",
                "--round-fidelity",
                "0.9",
                "-o",
                str(trace),
            ]
        )
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        assert trace.exists()

        code = main(["trace", "summary", str(trace)])
        assert code == 0
        output = capsys.readouterr().out
        assert "run_start" in output
        assert "peak DD" in output
        assert "f_final" in output

    def test_summary_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["trace", "summary", str(tmp_path / "no.jsonl")])
        assert code == 1
        assert capsys.readouterr().err

