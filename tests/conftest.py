"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def process_pools(monkeypatch):
    """(pool size, start method, chunksize) of every map on a
    ProcessPoolExecutor that the code starts.

    The pools still run: this records what was asked for, so a test can check
    the pool size without starting that many processes itself.
    """
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            self.recorded = (max_workers, mp_context.get_start_method() if mp_context else None)
            super().__init__(max_workers, mp_context, **kwargs)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            started.append((*self.recorded, chunksize))
            return super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started
