"""`fork_map`: results in item order from the caller and its forked children, and no child left behind."""

import os
import time

import pytest

from mixformer.pool import fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids that `os.fork` returns in this process."""
    pids, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize("n_items", range(6))
@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_results_come_back_in_item_order(forked, jobs, n_items):
    caller, n = os.getpid(), min(jobs, n_items)
    results = list(fork_map(lambda x: [x * x, os.getpid()], range(n_items), jobs))
    assert [square for square, _ in results] == [x * x for x in range(n_items)]
    pids = [pid for _, pid in results]
    assert pids == [pids[i % n] for i in range(n_items)]  # item i runs in process i % n
    assert [pid == caller for pid in pids[:n]] == ([True] + [False] * (n - 1))[:n]  # the caller is process 0
    assert sorted(pids[1:n]) == sorted(forked) and len(forked) == max(n - 1, 0)
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_child_that_exits_before_sending_raises_with_its_pid(forked, jobs):
    caller = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != caller:
            os._exit(3)
        return [x]

    results = fork_map(fn, range(6), jobs)
    assert next(results) == [0]
    with pytest.raises(RuntimeError, match=f"child {forked[0]} exited with status 3 before sending"):
        next(results)
    assert_no_child_left()  # with jobs=3, the other child is reaped too


@pytest.mark.parametrize("jobs", [2, 3])
def test_closing_drops_the_items_not_started(tmp_path, forked, jobs):
    # The caller's items return at once, and each of the children's takes 0.3 s.
    caller, log = os.getpid(), tmp_path / "started"

    def fn(x):
        with open(log, "a") as fh:
            fh.write(f"{x}\n")
        if os.getpid() != caller:
            time.sleep(0.3)
        return [x]

    results = fork_map(fn, range(10), jobs)
    assert next(results) == [0]
    results.close()  # each child finishes its first item, fails to send it and exits
    assert_no_child_left()
    assert sorted(map(int, log.read_text().split())) == list(range(jobs))
