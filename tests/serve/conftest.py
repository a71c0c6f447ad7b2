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
from repro.service.store import ArtifactStore


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
