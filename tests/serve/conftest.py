"""Serving-layer fixtures: stores, short sockets, live daemons."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.faults import injector as injector_module
from repro.serve import ServeClient, SimDaemon
from repro.serve.protocol import Submission
from repro.service.jobs import JobSpec
from repro.service.store import ArtifactStore


#: A parked-jobs file exactly as the drain of a daemon or router that
#: wrote every key (null timeouts included) left it.  Restores must keep
#: reading this form.
LEGACY_PARKED_FILE = """[
  {
    "hard_timeout": null,
    "priority": 3,
    "soft_timeout": 2.5,
    "spec": {
      "checkpoint_interval": 0,
      "circuit": "builtin:shor_15_2",
      "label": "",
      "max_seconds": null,
      "seed": 0,
      "shots": 0,
      "strategy": "exact",
      "strategy_args": {}
    },
    "tenant": "acme"
  },
  {
    "hard_timeout": 60.0,
    "priority": 0,
    "soft_timeout": null,
    "spec": {
      "checkpoint_interval": 10,
      "circuit": "builtin:shor_21_2",
      "label": "",
      "max_seconds": null,
      "seed": 7,
      "shots": 16,
      "strategy": "fidelity",
      "strategy_args": {
        "final_fidelity": 0.5,
        "round_fidelity": 0.9
      }
    },
    "tenant": "default"
  }
]"""


def legacy_parked_submissions() -> list[Submission]:
    """What :data:`LEGACY_PARKED_FILE` must restore as."""
    return [
        Submission(JobSpec("builtin:shor_15_2"), "acme", 3, 2.5, None),
        Submission(
            JobSpec(
                "builtin:shor_21_2",
                strategy="fidelity",
                strategy_args=(
                    ("final_fidelity", 0.5),
                    ("round_fidelity", 0.9),
                ),
                shots=16,
                seed=7,
                checkpoint_interval=10,
            ),
            "default",
            0,
            None,
            60.0,
        ),
    ]


def write_parked_file(store: ArtifactStore, name: str, text: str) -> None:
    path = store.parked_jobs_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@pytest.fixture(autouse=True)
def _clean_injector():
    """Disarm the process-wide fault injector around every test."""
    injector_module.disarm()
    yield
    injector_module.disarm()


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "store"))


@contextlib.contextmanager
def run_daemon(store: ArtifactStore, **kwargs):
    """Run a real daemon (workers + socket + control loop) for a test.

    The Unix socket lives in its own short ``mkdtemp`` directory:
    pytest's ``tmp_path`` can exceed the ~100-byte ``AF_UNIX`` path
    limit.
    """
    socket_dir = tempfile.mkdtemp(prefix="serve-test-")
    kwargs.setdefault("tick_interval", 0.02)
    daemon = SimDaemon(
        store,
        socket_path=os.path.join(socket_dir, "serve.sock"),
        log=io.StringIO(),
        **kwargs,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(socket_path=daemon.socket_path, timeout=30.0)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client.ping()
            break
        except OSError:
            if time.monotonic() >= deadline:
                daemon.stop()
                raise RuntimeError("daemon did not come up")
            time.sleep(0.02)
    try:
        yield daemon, client
    finally:
        daemon.stop()
        thread.join(15.0)
        shutil.rmtree(socket_dir, ignore_errors=True)
        assert not thread.is_alive(), "daemon control loop failed to stop"
