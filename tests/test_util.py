import os

from forking import _assert_reaped, _deadline, _record_forks
from jumpscan.util import _pool_chunks


def _tagged(task):
    return task * task, os.getpid()


def test_pool_forks_at_most_one_child_per_task(monkeypatch):
    pids = _record_forks(monkeypatch)
    with _deadline(60):
        out = _pool_chunks(_tagged, [1, 2, 3], 8)
    assert [v for v, _ in out] == [1, 4, 9]
    assert [pid for _, pid in out] == pids and len(pids) == 3
    _assert_reaped(pids)


def test_pool_runs_here_when_a_fork_fails(monkeypatch):
    pids = _record_forks(monkeypatch)
    recording_fork = os.fork

    def second_fork_fails():
        if pids:
            raise OSError("fork refused")
        return recording_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with _deadline(60):
        out = _pool_chunks(_tagged, [1, 2, 3, 4], 2)
    # the child already started is killed and reaped, and every task runs here
    assert out == [(t * t, os.getpid()) for t in (1, 2, 3, 4)]
    assert len(pids) == 1
    _assert_reaped(pids)
