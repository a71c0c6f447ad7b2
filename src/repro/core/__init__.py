"""The paper's contribution: contributions, approximation, strategies.

Public API:

* :func:`node_contributions` / :func:`level_contribution_sums` —
  Definition 2.
* :func:`approximate_state` — fidelity-budgeted node removal (§IV-A).
* :class:`MemoryDrivenStrategy` (§IV-B), :class:`FidelityDrivenStrategy`
  (§IV-C), :class:`NoApproximation`.
* :class:`DDSimulator` / :func:`simulate` — the approximating simulator.
* :func:`max_rounds`, :func:`composed_fidelity`, Lemma 1 helpers.
"""

from .approximation import (
    ApproximationResult,
    approximate_below_contribution,
    approximate_state,
    approximate_to_size,
    rebuild_without,
    round_edge_weights,
    select_nodes_for_removal,
)
from .contributions import (
    level_contribution_sums,
    node_contributions,
    smallest_contributors,
)
from .fidelity import (
    composed_fidelity,
    fidelity_dense,
    max_rounds,
    state_fidelity,
    truncate_dense,
    truncation_fidelity,
    verify_lemma1_dense,
)
from .simulator import (
    CancellationToken,
    DDSimulator,
    MemoryWatchdog,
    ResumePoint,
    RoundRecord,
    SimulationOutcome,
    SimulationStats,
    SimulationTimeout,
    simulate,
)
from .semiclassical import (
    SemiclassicalRun,
    semiclassical_phase_estimation,
    semiclassical_shor_factor,
    semiclassical_shor_run,
)
from .strategies import (
    AdaptiveStrategy,
    ApproximationStrategy,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SizeCapStrategy,
)

__all__ = [
    "AdaptiveStrategy",
    "ApproximationResult",
    "ApproximationStrategy",
    "CancellationToken",
    "DDSimulator",
    "FidelityDrivenStrategy",
    "MemoryDrivenStrategy",
    "MemoryWatchdog",
    "NoApproximation",
    "ResumePoint",
    "RoundRecord",
    "SemiclassicalRun",
    "SimulationOutcome",
    "SizeCapStrategy",
    "SimulationStats",
    "SimulationTimeout",
    "approximate_below_contribution",
    "approximate_state",
    "approximate_to_size",
    "composed_fidelity",
    "round_edge_weights",
    "fidelity_dense",
    "level_contribution_sums",
    "max_rounds",
    "node_contributions",
    "rebuild_without",
    "select_nodes_for_removal",
    "semiclassical_phase_estimation",
    "semiclassical_shor_factor",
    "semiclassical_shor_run",
    "simulate",
    "smallest_contributors",
    "state_fidelity",
    "truncate_dense",
    "truncation_fidelity",
    "verify_lemma1_dense",
]
