"""Fixtures that pin the worker pool behind prune_array and verify_estimator."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from nmsparse import estimators


@pytest.fixture
def one_worker(monkeypatch):
    """Every task runs inline in the calling thread, as on one CPU."""
    monkeypatch.setattr(estimators, "_pool", None)
    monkeypatch.setattr(estimators, "_CPUS", 1)


@pytest.fixture
def four_workers(monkeypatch):
    """Three pool threads plus the calling thread, more than this host's
    cores on small machines, so the tasks interleave."""
    pool = ThreadPoolExecutor(
        3, "nmsparse-test", initializer=setattr, initargs=(estimators._in_worker, "active", True)
    )
    monkeypatch.setattr(estimators, "_pool", pool)
    monkeypatch.setattr(estimators, "_CPUS", 4)
    yield pool
    pool.shutdown(wait=False, cancel_futures=True)


@pytest.fixture
def within_seconds():
    """Run fn() on a helper thread and fail if it has not returned in time."""

    def run(fn, seconds):
        result = []
        thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"did not finish within {seconds} s"
        assert result, "raised instead of returning"
        return result[0]

    return run
