"""Serialization of decision diagrams to a JSON-compatible format.

Persisting an approximate state is a natural companion to the paper's
workflow — a single approximation result may be sampled and post-processed
many times.  The format stores each distinct node exactly once (preserving
the sharing that makes the representation small) plus the root edge, as
a packed node table:

.. code-block:: json

    {
      "format": "repro-dd-state",
      "version": 2,
      "num_qubits": 3,
      "root": {"weight": [1.0, 0.0], "node": 4},
      "children": "<base64: 3 little-endian int32 per node>",
      "weights": "<base64: 4 little-endian float64 per node>"
    }

Per node, ``children`` holds its level and the positions of its two
children (``-1`` denotes the terminal), and ``weights`` the real and
imaginary parts of its two edge weights, bit for bit.  Nodes run in
ascending level order, each level in
:meth:`~repro.dd.backends.DDBackend.vnodes` order, so children precede
parents and the root comes last.  The backend writes the table
(:meth:`~repro.dd.backends.DDBackend.state_table`; the arena's core in
one walk of its record).

Loading checks every node and the root, then interns the stored nodes
verbatim (:meth:`~repro.dd.backends.DDBackend.intern_state_table`): no
node is renormalised, so the decoded diagram equals the stored one
weight for weight, in any package and on either backend.

Only version 2 is read and written.  A version 1 document (a ``nodes``
list with JSON weights) raises :class:`ValueError` like any other
damage; the artifact store quarantines it, and the job is recomputed.
"""

from __future__ import annotations

import base64
import binascii
import json
import math

from .package import Package, default_package
from .vector import StateDD

FORMAT_NAME = "repro-dd-state"
FORMAT_VERSION = 2


def _weight_from_json(pair: list) -> complex:
    return complex(pair[0], pair[1])


def state_to_dict(state: StateDD) -> dict:
    """Serialize a state diagram to a JSON-compatible dictionary."""
    ints, doubles = state.package.state_table(state.edge)
    weight, root = state.edge
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "num_qubits": state.num_qubits,
        "root": {
            "weight": [weight.real, weight.imag],
            "node": -1 if root is None else len(ints) // 12 - 1,
        },
        "children": base64.b64encode(ints).decode("ascii"),
        "weights": base64.b64encode(doubles).decode("ascii"),
    }


def state_from_dict(
    data: dict, package: Package | None = None
) -> StateDD:
    """Rebuild a state diagram from its serialized form.

    Raises:
        ValueError: On format mismatches, malformed documents, and
            version 2 node tables that fail their checks (see
            :meth:`~repro.dd.backends.DDBackend.intern_state_table`).
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported version {version!r}")
    pkg = package or default_package()
    try:
        num_qubits = int(data["num_qubits"])
        root_weight = _weight_from_json(data["root"]["weight"])
        root_index = int(data["root"]["node"])
        ints = base64.b64decode(data["children"], validate=True)
        doubles = base64.b64decode(data["weights"], validate=True)
    except (KeyError, TypeError, IndexError, binascii.Error) as error:
        raise ValueError(f"malformed {FORMAT_NAME} document: {error!r}") from error
    if not (math.isfinite(root_weight.real) and math.isfinite(root_weight.imag)):
        raise ValueError("root weight is not finite")
    node = pkg.intern_state_table(num_qubits, ints, doubles, root_index)
    return StateDD((root_weight, node), num_qubits, pkg)


def save_state(state: StateDD, path: str) -> None:
    """Write a state diagram to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state_to_dict(state), handle)


def load_state(path: str, package: Package | None = None) -> StateDD:
    """Read a state diagram from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return state_from_dict(json.load(handle), package)
