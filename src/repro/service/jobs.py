"""Job specifications: frozen, content-addressed simulation requests.

A :class:`JobSpec` is the unit of work the service layer schedules,
caches, and resumes.  It is deliberately *self-contained*: the circuit is
either a builtin workload name (``builtin:shor_33_5``) or the full QASM
source text — never a file path — so the spec's content hash keys the
artifact store correctly even when files on disk change.

The content hash covers exactly the fields that determine the simulated
final state: circuit, strategy kind, and strategy arguments.  Sampling
parameters (``shots``, ``seed``) and operational knobs (``max_seconds``,
``checkpoint_interval``, ``label``) are excluded — a cached final state
can be rehydrated and re-sampled under any of them (cf. Zulehner et al.,
arXiv:2002.04904: an approximated state is a reusable artifact).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

from ..circuits.circuit import Circuit
from ..circuits.qasm import parse_qasm
from ..circuits.shor import shor_circuit
from ..circuits.supremacy import supremacy_circuit
from ..faults.errors import PermanentFault
from ..core.strategies import (
    AdaptiveStrategy,
    ApproximationStrategy,
    FidelityDrivenStrategy,
    MemoryDrivenStrategy,
    NoApproximation,
    SizeCapStrategy,
)

BUILTIN_PREFIX = "builtin:"

#: Strategy kinds accepted by :func:`build_strategy`.
STRATEGY_KINDS = ("exact", "memory", "fidelity", "adaptive", "size_cap")

#: Strategy constructor arguments that must be integers (JSON round-trips
#: and CLI parsing deliver floats/strings; constructors validate ints).
_INT_ARGS = frozenset({"threshold", "max_nodes"})


class JobSpecError(PermanentFault, ValueError):
    """A job spec (or a file it references) could not be loaded.

    Subclasses both :class:`~repro.faults.errors.PermanentFault` (the
    engine must not retry a malformed spec) and :class:`ValueError`
    (existing ``except (OSError, ValueError)`` call sites keep working).

    Attributes:
        path: The offending file, when the failure came from reading one.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


#: Constructor of each strategy kind that takes arguments.
_STRATEGY_CLASSES: dict[str, type[ApproximationStrategy]] = {
    "memory": MemoryDrivenStrategy,
    "fidelity": FidelityDrivenStrategy,
    "adaptive": AdaptiveStrategy,
    "size_cap": SizeCapStrategy,
}


def check_seconds(name: str, value: object) -> float | None:
    """Validate a time budget: None, or a finite number >= 0.

    The one rule for ``JobSpec.max_seconds`` and the serve protocol's
    ``soft_timeout``/``hard_timeout``.  Returns the budget as a float.

    Raises:
        ValueError: ``<name> must be a finite number >= 0, got ...``
            for a string, a bool, NaN, an infinity or a negative value.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
    ):
        raise ValueError(
            f"{name} must be a finite number >= 0, got {value!r}"
        )
    return float(value)


def _read_text(path: str, what: str) -> str:
    """Read a referenced file, wrapping failures as :class:`JobSpecError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        raise JobSpecError(
            f"cannot read {what} {path!r}: {error}", path=path
        ) from error
    except UnicodeDecodeError as error:
        raise JobSpecError(
            f"{what} {path!r} is not UTF-8 text: {error}", path=path
        ) from error


def build_builtin_circuit(name: str) -> Circuit:
    """Build a named builtin workload circuit.

    Supported names: ``shor_<modulus>_<base>`` and
    ``qsup_<rows>x<cols>_<depth>_<seed>``.

    Raises:
        ValueError: For an unrecognized builtin name.
    """
    parts = name.split("_")
    try:
        if parts[0] == "shor" and len(parts) == 3:
            return shor_circuit(int(parts[1]), int(parts[2]))
        if parts[0] == "qsup" and len(parts) == 4:
            rows, cols = (int(v) for v in parts[1].split("x"))
            return supremacy_circuit(
                rows, cols, int(parts[2]), int(parts[3])
            )
    except ValueError as error:
        # Re-raise int() parse failures with the workload name attached.
        raise ValueError(
            f"malformed builtin workload {name!r}: {error}"
        ) from error
    raise ValueError(f"unknown builtin workload {name!r}")


def build_strategy(
    kind: str, args: dict[str, float] | None = None
) -> ApproximationStrategy:
    """Instantiate an approximation strategy from a picklable description.

    This is the single strategy factory shared by the job engine and the
    CLI.

    Args:
        kind: One of :data:`STRATEGY_KINDS`.
        args: Keyword arguments of the strategy constructor; integer
            parameters (``threshold``, ``max_nodes``) are coerced.

    Raises:
        ValueError: For an unknown kind or invalid arguments.  An
            argument the constructor does not take (or a missing one)
            raises :class:`JobSpecError` naming the kind and the argument.
    """
    kwargs: dict = dict(args or {})
    for key in _INT_ARGS & kwargs.keys():
        kwargs[key] = int(kwargs[key])
    if kind == "exact":
        if kwargs:
            raise ValueError("exact strategy takes no arguments")
        return NoApproximation()
    constructor = _STRATEGY_CLASSES.get(kind)
    if constructor is None:
        raise ValueError(f"unknown strategy kind {kind!r}")
    try:
        return constructor(**kwargs)
    except TypeError as error:
        raise JobSpecError(
            f"invalid arguments for strategy {kind!r}: {error}"
        ) from error


@dataclass(frozen=True)
class JobSpec:
    """A frozen, hashable description of one simulation job.

    Attributes:
        circuit: ``builtin:<name>`` or full OpenQASM source text.
        strategy: Strategy kind (see :data:`STRATEGY_KINDS`).
        strategy_args: Sorted ``(name, value)`` pairs for the strategy
            constructor (a tuple so the spec stays hashable/picklable).
        shots: Measurement samples drawn from the final state (0 = none).
        seed: RNG seed for sampling.  ``shots``, ``seed`` and
            ``checkpoint_interval`` must be non-negative ``int`` (not
            ``bool``).
        max_seconds: Cooperative time budget per execution attempt
            (None = unbounded; otherwise a finite number >= 0, see
            :func:`check_seconds`).
        checkpoint_interval: Persist a resume checkpoint every this many
            applied operations (0 disables checkpointing).
        label: Free-form display name (not part of the identity).
    """

    circuit: str
    strategy: str = "exact"
    strategy_args: tuple[tuple[str, float], ...] = ()
    shots: int = 0
    seed: int = 0
    max_seconds: float | None = None
    checkpoint_interval: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.strategy!r}; "
                f"expected one of {STRATEGY_KINDS}"
            )
        for name in ("shots", "seed", "checkpoint_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        check_seconds("max_seconds", self.max_seconds)
        # Canonicalize the argument order so hashing is insensitive to it.
        object.__setattr__(
            self,
            "strategy_args",
            tuple(sorted(tuple(pair) for pair in self.strategy_args)),
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the fields that determine the simulated state.

        Two specs with equal hashes produce (bit-for-bit, up to
        floating-point determinism of the simulator) the same final state
        diagram, so the artifact store may serve either from the other's
        cached result.
        """
        identity = {
            "circuit": self.circuit,
            "strategy": self.strategy,
            "strategy_args": [list(pair) for pair in self.strategy_args],
        }
        canonical = json.dumps(
            identity, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def display_name(self) -> str:
        """Label if set, else the builtin name, else a QASM placeholder."""
        if self.label:
            return self.label
        if self.circuit.startswith(BUILTIN_PREFIX):
            return self.circuit[len(BUILTIN_PREFIX):]
        return "qasm"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, **kwargs) -> "JobSpec":
        """Build a spec from a CLI-style circuit source.

        ``builtin:<name>`` passes through; anything else is treated as a
        path to a QASM file whose *content* is inlined into the spec (so
        the hash addresses the circuit text, not the path).

        Raises:
            JobSpecError: When the QASM file cannot be read — carries
                the offending path.
        """
        if source.startswith(BUILTIN_PREFIX):
            return cls(circuit=source, **kwargs)
        text = _read_text(source, "circuit file")
        kwargs.setdefault("label", source)
        return cls(circuit=text, **kwargs)

    def to_dict(self) -> dict:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "circuit": self.circuit,
            "strategy": self.strategy,
            "strategy_args": {name: value for name, value in self.strategy_args},
            "shots": self.shots,
            "seed": self.seed,
            "max_seconds": self.max_seconds,
            "checkpoint_interval": self.checkpoint_interval,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Rebuild a spec from its JSON form.

        ``strategy_args`` may be a mapping or ``(name, value)`` pairs.

        Raises:
            ValueError: On unknown keys or malformed values.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown job fields: {', '.join(sorted(unknown))}"
            )
        payload = dict(data)
        raw_args = payload.get("strategy_args", ())
        if isinstance(raw_args, dict):
            pairs = tuple(raw_args.items())
        else:
            pairs = tuple(tuple(pair) for pair in raw_args)
        payload["strategy_args"] = pairs
        return cls(**payload)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def build_circuit(self) -> Circuit:
        """Instantiate the circuit this spec describes."""
        if self.circuit.startswith(BUILTIN_PREFIX):
            return build_builtin_circuit(self.circuit[len(BUILTIN_PREFIX):])
        return parse_qasm(self.circuit, name=self.display_name)

    def build_strategy(self) -> ApproximationStrategy:
        """Instantiate a fresh strategy object for one execution."""
        return build_strategy(self.strategy, dict(self.strategy_args))

    def with_overrides(self, **kwargs) -> "JobSpec":
        """Copy with operational fields replaced (identity unchanged
        unless circuit/strategy fields are overridden)."""
        return replace(self, **kwargs)


def load_job_specs(path: str) -> list[JobSpec]:
    """Load a batch file: either ``[{...}, ...]`` or ``{"jobs": [...]}``.

    Each entry is a :meth:`JobSpec.from_dict` document, with one
    extension: a ``circuit`` starting with ``file:`` is read from the
    named path (relative paths resolve against the batch file's
    directory) and inlined.

    Raises:
        ValueError: On malformed documents.
        JobSpecError: When the batch file or a referenced QASM file is
            unreadable — carries the offending path (a ``ValueError``
            subclass, so broad call sites keep working).
    """
    import os

    try:
        document = json.loads(_read_text(path, "batch file"))
    except json.JSONDecodeError as error:
        raise JobSpecError(
            f"batch file {path!r} is not valid JSON: {error}", path=path
        ) from error
    if isinstance(document, dict):
        entries = document.get("jobs")
        if not isinstance(entries, list):
            raise ValueError('batch document must have a "jobs" list')
    elif isinstance(document, list):
        entries = document
    else:
        raise ValueError("batch document must be a list or an object")
    base_dir = os.path.dirname(os.path.abspath(path))
    specs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each job entry must be an object")
        entry = dict(entry)
        circuit = entry.get("circuit", "")
        if isinstance(circuit, str) and circuit.startswith("file:"):
            qasm_path = circuit[len("file:"):]
            if not os.path.isabs(qasm_path):
                qasm_path = os.path.join(base_dir, qasm_path)
            entry["circuit"] = _read_text(qasm_path, "referenced QASM file")
            entry.setdefault("label", circuit[len("file:"):])
        specs.append(JobSpec.from_dict(entry))
    return specs
