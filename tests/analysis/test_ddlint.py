"""Tests for the domain-aware linter (DD001-DD006).

Every rule gets a positive fixture (code that must be flagged) and a
negative fixture (idiomatic code that must pass), plus the privileged
modules where the rule is intentionally silent.
"""

from __future__ import annotations

import pytest

from repro.analysis import RULES, LintError, lint_paths, lint_source
from repro.analysis.ddlint import module_name_for


def codes(source: str, path: str = "src/repro/core/example.py") -> list[str]:
    return [violation.rule for violation in lint_source(source, path)]


class TestRuleCatalog:
    def test_all_rules_documented(self):
        assert set(RULES) == {f"DD{index:03d}" for index in range(1, 15)}
        for rule in RULES.values():
            assert rule.summary
            assert rule.rationale

    def test_violation_format(self):
        violations = lint_source(
            "x = VNode(0, ())\n", "src/repro/core/a.py"
        )
        assert len(violations) == 1
        rendered = violations[0].format()
        assert "src/repro/core/a.py:1:" in rendered
        assert "DD001" in rendered


class TestDD001NodeConstruction:
    def test_flags_direct_vnode_construction(self):
        assert "DD001" in codes("node = VNode(0, (e0, e1))\n")

    def test_flags_direct_mnode_construction(self):
        assert "DD001" in codes("node = MNode(1, edges)\n")

    def test_flags_attribute_form(self):
        assert "DD001" in codes("node = node_module.VNode(0, edges)\n")

    def test_allows_package_module(self):
        assert codes(
            "node = VNode(0, (e0, e1))\n", "src/repro/dd/package.py"
        ) == []

    def test_allows_node_module(self):
        assert codes(
            "node = VNode(0, (e0, e1))\n", "src/repro/dd/node.py"
        ) == []

    def test_allows_other_calls(self):
        assert codes("node = make_vedge(0, e0, e1)\n") == []


class TestDD002ExactFloatComparison:
    def test_flags_float_equality(self):
        assert "DD002" in codes("if weight == 0.0:\n    pass\n")

    def test_flags_float_inequality(self):
        assert "DD002" in codes("if weight != 1.0:\n    pass\n")

    def test_flags_complex_literal(self):
        assert "DD002" in codes("if w == 1 + 0j:\n    pass\n")

    def test_flags_negative_literal(self):
        assert "DD002" in codes("if w == -1.0:\n    pass\n")

    def test_allows_integer_comparison(self):
        assert codes("if count == 0:\n    pass\n") == []

    def test_allows_ordering_comparison(self):
        assert codes("if weight > 0.5:\n    pass\n") == []

    def test_allows_ctable_module(self):
        assert codes(
            "if weight == 0.0:\n    pass\n", "src/repro/dd/ctable.py"
        ) == []


class TestDD003NodeMutation:
    def test_flags_edges_assignment(self):
        assert "DD003" in codes("node.edges = new_edges\n")

    def test_flags_level_assignment(self):
        assert "DD003" in codes("node.level = 3\n")

    def test_flags_augmented_assignment(self):
        assert "DD003" in codes("node.level += 1\n")

    def test_allows_other_attributes(self):
        assert codes("record.edges_seen = 3\nstate.total = 1\n") == []

    def test_allows_package_module(self):
        assert codes(
            "node.edges = edges\n", "src/repro/dd/package.py"
        ) == []


class TestDD004MissingAnnotations:
    def test_flags_unannotated_public_function(self):
        assert "DD004" in codes("def apply(state, gate):\n    return state\n")

    def test_flags_missing_return_annotation(self):
        assert "DD004" in codes(
            "def apply(state: int, gate: str):\n    return state\n"
        )

    def test_allows_fully_annotated(self):
        assert codes(
            "def apply(state: int, gate: str) -> int:\n    return state\n"
        ) == []

    def test_allows_private_functions(self):
        assert codes("def _helper(state):\n    return state\n") == []

    def test_allows_nested_functions(self):
        source = (
            "def outer() -> None:\n"
            "    def inner(x):\n"
            "        return x\n"
        )
        assert codes(source) == []

    def test_skips_self_and_cls(self):
        source = (
            "class Thing:\n"
            "    def method(self, x: int) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def build(cls) -> 'Thing':\n"
            "        return cls()\n"
        )
        assert codes(source) == []

    def test_methods_are_public_api(self):
        source = (
            "class Thing:\n"
            "    def method(self, x):\n"
            "        return x\n"
        )
        assert "DD004" in codes(source)

    def test_only_in_annotated_packages(self):
        source = "def apply(state, gate):\n    return state\n"
        assert codes(source, "src/repro/service/jobs.py") == []


class TestDD005WallClockTiming:
    def test_flags_time_time(self):
        assert "DD005" in codes(
            "import time\nstarted = time.time()\n"
        )

    def test_allows_perf_counter(self):
        assert codes(
            "import time\nstarted = time.perf_counter()\n"
        ) == []


class TestDD006BackendInternals:
    def test_flags_unique_table_access(self):
        assert "DD006" in codes("size = len(package._vtable)\n")

    def test_flags_compute_cache_access(self):
        assert "DD006" in codes("package._vadd_cache.clear()\n")

    def test_flags_cache_forgery_assignment(self):
        assert "DD006" in codes('package._mv_cache["k"] = edge\n')

    def test_allows_backend_modules(self):
        assert codes(
            "size = len(self._vtable)\n",
            "src/repro/dd/backends/arena.py",
        ) == []
        assert codes(
            "self._vadd_cache.clear()\n",
            "src/repro/dd/backends/reference.py",
        ) == []

    def test_facade_is_not_privileged(self):
        assert "DD006" in codes(
            "x = self._backend._vtable\n", "src/repro/dd/package.py"
        )

    def test_allows_interface_methods(self):
        assert codes(
            "sizes = package.unique_table_sizes()\n"
            "stats = package.cache_stats()\n"
            "problems = package.integrity_problems()\n"
        ) == []


class TestDD013StoreFileAccess:
    def test_flags_open_on_store_root(self):
        assert "DD013" in codes(
            'handle = open(os.path.join(store.root, "read-only.json"))\n'
        )

    def test_flags_open_on_store_path_method(self):
        assert "DD013" in codes(
            'handle = open(store.lease_path(job_hash), "w")\n'
        )

    def test_flags_os_replace_on_checkpoint_dir(self):
        assert "DD013" in codes(
            "os.replace(staged, os.path.join("
            'store.checkpoint_dir(job_hash), "latest.json"))\n'
        )

    def test_flags_replica_root_access(self):
        assert "DD013" in codes(
            'handle = open(os.path.join(replica.root, "objects", name))\n'
        )

    def test_allows_store_module(self):
        assert codes(
            'handle = open(store.lease_path(job_hash), "w")\n',
            "src/repro/service/store.py",
        ) == []

    def test_allows_replication_module(self):
        assert codes(
            "os.replace(staged, os.path.join("
            'store.checkpoint_dir(job_hash), "latest.json"))\n',
            "src/repro/service/replication.py",
        ) == []

    def test_allows_lease_module(self):
        assert codes(
            'handle = open(store.lease_path(job_hash), "w")\n',
            "src/repro/service/lease.py",
        ) == []

    def test_allows_non_store_paths(self):
        assert codes(
            'handle = open(os.path.join(log_dir, "s0.log"), "a")\n'
        ) == []

    def test_allows_store_api_calls(self):
        assert codes(
            'store.park_jobs("drained-queue", payload)\n'
        ) == []

    def test_suppression(self):
        assert codes(
            'handle = open(os.path.join(store.root, "marker"))'
            "  # ddlint: ignore[DD013]\n"
        ) == []


class TestDD014RecursiveClosures:
    RECURSIVE = (
        "def depth(node: object) -> int:\n"
        "    def walk(current: object) -> int:\n"
        "        if current is None:\n"
        "            return 0\n"
        "        return 1 + walk(current.next)\n"
        "    return walk(node)\n"
    )

    def test_flags_self_recursive_closure(self):
        assert "DD014" in codes(self.RECURSIVE)

    def test_flags_engine_and_lowering_packages(self):
        assert "DD014" in codes(self.RECURSIVE, "src/repro/dd/vector.py")
        assert "DD014" in codes(
            self.RECURSIVE, "src/repro/circuits/lowering.py"
        )

    def test_flags_self_reference_in_a_generator(self):
        source = (
            "def build(level: int) -> tuple:\n"
            "    def block(depth: int) -> tuple:\n"
            "        return tuple(block(depth - 1) for _ in range(depth))\n"
            "    return block(level)\n"
        )
        assert "DD014" in codes(source)

    def test_allows_module_level_recursion(self):
        source = (
            "def _walk(current: object) -> int:\n"
            "    if current is None:\n"
            "        return 0\n"
            "    return 1 + _walk(current.next)\n"
        )
        assert codes(source) == []

    def test_allows_recursive_method(self):
        source = (
            "class Chain:\n"
            "    def depth(self, node: object) -> int:\n"
            "        return 0 if node is None else 1 + self.depth(node)\n"
        )
        assert codes(source) == []

    def test_allows_nested_non_recursive_helper(self):
        source = (
            "def scaled(values: list, factor: float) -> list:\n"
            "    def scale(value: float) -> float:\n"
            "        return value * factor\n"
            "    return [scale(value) for value in values]\n"
        )
        assert codes(source) == []

    def test_allows_packages_outside_the_simulator(self):
        assert codes(self.RECURSIVE, "src/repro/analysis/dataflow.py") == []

    def test_suppression(self):
        source = self.RECURSIVE.replace(
            "    def walk(current: object) -> int:\n",
            "    def walk(current: object) -> int:  # ddlint: ignore[DD014]\n",
        )
        assert codes(source) == []


class TestSuppression:
    def test_inline_ignore_silences_rule(self):
        source = "import time\nt = time.time()  # ddlint: ignore[DD005]\n"
        assert codes(source) == []

    def test_ignore_is_rule_specific(self):
        source = "import time\nt = time.time()  # ddlint: ignore[DD001]\n"
        assert "DD005" in codes(source)

    def test_multi_rule_with_spaces(self):
        source = (
            "import time\n"
            "t = time.time() == 0.0  # ddlint: ignore[DD002, DD005]\n"
        )
        assert codes(source) == []

    def test_multi_rule_partial(self):
        source = (
            "import time\n"
            "t = time.time() == 0.0  # ddlint: ignore[DD001, DD005]\n"
        )
        assert codes(source) == ["DD002"]

    def test_suppression_on_decorator_line(self):
        source = (
            "@decorate  # ddlint: ignore[DD004]\n"
            "def apply(state, gate):\n"
            "    return state\n"
        )
        assert codes(source) == []

    def test_suppression_on_multiline_signature(self):
        source = (
            "def apply(\n"
            "    state,  # ddlint: ignore[DD004]\n"
            "    gate,\n"
            "):\n"
            "    return state\n"
        )
        assert codes(source) == []

    def test_suppression_in_function_body_does_not_leak(self):
        # The DD004 span covers decorators + signature only; a marker
        # deep in the body must not silence the signature finding.
        source = (
            "def apply(state, gate):\n"
            "    x = 1  # ddlint: ignore[DD004]\n"
            "    return state\n"
        )
        assert "DD004" in codes(source)

    def test_suppression_on_multiline_statement(self):
        source = (
            "check = (\n"
            "    weight\n"
            "    == 0.0  # ddlint: ignore[DD002]\n"
            ")\n"
        )
        assert codes(source) == []


class TestPaths:
    def test_module_name_for(self):
        assert module_name_for("src/repro/dd/package.py") == (
            "repro.dd.package"
        )
        assert module_name_for("src/repro/dd/__init__.py") == "repro.dd"

    def test_lint_paths_recurses_and_sorts(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "b.py").write_text("x = VNode(0, ())\n", encoding="utf-8")
        (tree / "a.py").write_text("y = MNode(0, ())\n", encoding="utf-8")
        violations = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [v.path for v in violations] == [
            "src/repro/core/a.py",
            "src/repro/core/b.py",
        ]
        assert {v.rule for v in violations} == {"DD001"}

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(LintError):
            lint_paths([bad], root=tmp_path)


class TestRepositoryIsRatcheted:
    def test_tree_has_no_unbaselined_findings(self):
        """The committed baseline covers every finding in the tree."""
        from pathlib import Path

        from repro.analysis import (
            compare_to_baseline,
            load_baseline,
            summarize,
        )

        root = Path(__file__).resolve().parents[2]
        violations = lint_paths([root / "src" / "repro"], root=root)
        baseline = load_baseline(root / "analysis" / "baseline.json")
        report = compare_to_baseline(violations, baseline)
        assert report.new == {}, (
            "new ddlint findings: fix them or justify a suppression:\n"
            + "\n".join(report.describe())
        )
        assert summarize(violations).keys() <= baseline.keys()

    def test_no_grandfathering_of_dataflow_rules(self):
        """The baseline may only carry legacy DD002 debt: the v2 passes
        (DD007-DD012) launched with a clean tree, and real findings must
        be fixed or explicitly suppressed — never baselined."""
        from pathlib import Path

        from repro.analysis import load_baseline

        root = Path(__file__).resolve().parents[2]
        baseline = load_baseline(root / "analysis" / "baseline.json")
        rules = {key.rsplit("::", 1)[1] for key in baseline}
        assert rules == {"DD002"}
