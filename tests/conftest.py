import os
import sys

import pytest

import extremogram as xg
import oracles
from extremogram import resample
from extremogram._rng import substream


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the run, capture or not."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def force_split(monkeypatch):
    """``force_split(workers)`` makes every band call below cut its work into
    ``workers`` ranges, whatever its size, as if the process could run on
    that many CPUs. It returns the list the pids of the children forked from
    then on are appended to; there are at most ``workers - 1`` per call."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def force(workers: int) -> list:
        assert 1 <= workers <= 3
        monkeypatch.setattr(resample, "SPLIT_POSITIONS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        monkeypatch.setattr(os, "fork", counting_fork)
        forked.clear()
        return forked

    return force


def assert_no_children():
    """No child process is left, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def literal_block_plan(n, p, child):
    """The plan of child seed ``child``, drawn by ``oracles.literal_plan``
    from its two substreams."""
    starts, lengths = oracles.literal_plan(n, p, substream(child, 0), substream(child, 1))
    return xg.BlockPlan(starts=starts, lengths=lengths, n=n)
