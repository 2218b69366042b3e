"""Suite-wide checks that run around every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_process_left():
    """Fail a test after which a worker process is still running: every
    pool the package starts must be shut down before its call returns."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"worker processes left running: {left}")
