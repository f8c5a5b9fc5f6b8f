import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import rrntn.models  # noqa: E402


@pytest.fixture
def helper_pool():
    """A one-worker pool of the kind rrntn.models makes for its helper
    thread, not installed; shut down after the test."""
    pool = ThreadPoolExecutor(1, thread_name_prefix="rrntn-test-helper")
    yield pool
    pool.shutdown(wait=True)


@pytest.fixture
def with_helper(monkeypatch, helper_pool):
    """rrntn.models runs its helper's share on a one-worker helper thread."""
    monkeypatch.setattr(rrntn.models, "_helper", helper_pool)
    return helper_pool


@pytest.fixture
def without_helper(monkeypatch):
    """rrntn.models has no helper thread: the caller runs its share."""
    monkeypatch.setattr(rrntn.models, "_helper", None)
