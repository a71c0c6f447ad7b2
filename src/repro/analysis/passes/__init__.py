"""Dataflow-aware analysis passes (ddlint v2).

Each pass consumes the shared :class:`repro.analysis.dataflow.ProjectIndex`
and returns :class:`repro.analysis.ddlint.Violation` findings, so every
pass family automatically participates in the inline-suppression and
baseline-ratchet machinery of the single-module linter:

* :mod:`repro.analysis.passes.determinism` — DD007/DD008: banned
  nondeterministic numpy ufuncs and native complex multiplies reaching
  engine code in ``repro.dd.backends.*``.
* :mod:`repro.analysis.passes.concurrency` — DD009/DD010/DD011:
  blocking calls under the daemon state lock, fork/signal-handler
  discipline, and cross-process shared-state writes outside sanctioned
  channels.
* :mod:`repro.analysis.passes.soundness` — DD012: Lemma-1 accounting
  state mutated outside the sanctioned Package/backend/strategy APIs.
"""

from __future__ import annotations

import ast
from collections.abc import Callable

from ..dataflow import ProjectIndex
from ..ddlint import Violation
from .concurrency import check_concurrency
from .determinism import check_determinism
from .soundness import check_soundness

__all__ = [
    "PASSES",
    "build_project",
    "run_passes",
]

PASSES: tuple[Callable[[ProjectIndex], list[Violation]], ...] = (
    check_determinism,
    check_concurrency,
    check_soundness,
)


def build_project(
    sources: list[tuple[str, str, ast.Module]]
) -> ProjectIndex:
    """Index parsed modules for the passes (thin convenience wrapper)."""
    return ProjectIndex.build(sources)


def run_passes(project: ProjectIndex) -> list[Violation]:
    """Run every registered pass over an indexed project."""
    findings: list[Violation] = []
    for check in PASSES:
        findings.extend(check(project))
    return findings
