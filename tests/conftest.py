"""Shared fixtures."""

import concurrent.futures
import os
import sys

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


@pytest.fixture
def forced_splits(monkeypatch):
    """Split every write_columns block of two or more rows, in chunks of three
    rows, and every _read_table body with a line end after its middle, with
    the second half in a forked child as if a second CPU were free; returns
    the pids forked.
    """
    if sys.platform != "linux":
        pytest.skip("the second half runs in a forked child on Linux only")
    from indecide import cli, kvdoc

    monkeypatch.setattr(kvdoc, "_SPLIT_WRITE_ROWS", 2)
    monkeypatch.setattr(kvdoc, "_WRITE_ROWS", 3)
    monkeypatch.setattr(cli, "_SPLIT_READ_CHARS", 0)
    monkeypatch.setattr(kvdoc, "_start_method", lambda: "fork")
    monkeypatch.setattr(kvdoc, "_usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def child_pids() -> set:
    """The child processes of this process, by the parent pid in each /proc/<pid>/stat (Linux)."""
    pids = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()  # after the command name, which may hold anything
        except OSError:  # it exited
            continue
        if int(fields[1]) == os.getpid():
            pids.add(int(entry))
    return pids


@pytest.fixture
def assert_no_child_left():
    """A check that the test left no child process: os.waitpid(-1, os.WNOHANG)
    raises ChildProcessError, or, where children older than the test still run
    (multiprocessing's resource tracker, say), it finds no exited child and
    no new child runs."""
    before = child_pids()

    def check():
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        assert pid == 0, f"child {pid} had exited unreaped"
        assert child_pids() <= before, f"children {child_pids() - before} still run"

    return check
