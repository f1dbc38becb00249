"""Dynamic lock-order witness: cycles, declared-rank inversions,
re-entrancy, sibling instances, and the zero-cost disabled path."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.analysis.locks import (
    WITNESS,
    CheckedLock,
    LockOrderError,
    LockWitness,
    checked,
    lock_check_enabled,
)


def _pair(witness, name_a="alpha_lock", name_b="beta_lock"):
    return (
        CheckedLock(threading.Lock(), name_a, witness),
        CheckedLock(threading.Lock(), name_b, witness),
    )


class TestCycleDetection:
    def test_consistent_order_is_fine(self):
        w = LockWitness()
        a, b = _pair(w)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert ("alpha_lock", "beta_lock") in w.edges()

    def test_reversed_order_raises(self):
        w = LockWitness()
        a, b = _pair(w)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="cycle"):
                with a:
                    pass

    def test_transitive_cycle_raises(self):
        w = LockWitness()
        a, b = _pair(w)
        c = CheckedLock(threading.Lock(), "gamma_lock", w)
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderError, match="cycle"):
                with a:
                    pass

    def test_cycle_error_names_both_sites(self):
        w = LockWitness()
        a, b = _pair(w)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="observed first at"):
                with a:
                    pass


class TestHierarchy:
    def test_declared_rank_inversion_raises_without_prior_edge(self):
        w = LockWitness()
        leaf = CheckedLock(threading.Lock(), "_stats_lock", w)  # tier 40
        outer = CheckedLock(threading.Lock(), "_store_lock", w)  # tier 20
        with leaf:
            with pytest.raises(LockOrderError, match="inversion"):
                with outer:
                    pass

    def test_declared_order_is_fine(self):
        w = LockWitness()
        outer = CheckedLock(threading.Lock(), "_store_lock", w)
        leaf = CheckedLock(threading.Lock(), "_stats_lock", w)
        with outer:
            with leaf:
                pass


class TestReentrancyAndSiblings:
    def test_reentrant_rlock_adds_no_edge(self):
        w = LockWitness()
        lk = CheckedLock(threading.RLock(), "_shard_locks", w)
        with lk:
            with lk:
                pass
        assert w.edges() == {}

    def test_same_name_sibling_instances_skipped(self):
        w = LockWitness()
        a = CheckedLock(threading.Lock(), "LRUCache._lock", w)
        b = CheckedLock(threading.Lock(), "LRUCache._lock", w)
        with a:
            with b:
                pass
        assert w.edges() == {}

    def test_per_thread_held_stacks(self):
        w = LockWitness()
        a, b = _pair(w)
        with a:
            t = threading.Thread(target=lambda: (b.acquire(), b.release()))
            t.start()
            t.join()
        # The other thread held nothing: no a->b edge was recorded.
        assert ("alpha_lock", "beta_lock") not in w.edges()


class TestEnableSwitch:
    def test_checked_passthrough_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_CHECK", raising=False)
        assert not lock_check_enabled()
        raw = threading.Lock()
        assert checked(raw, "x") is raw

    def test_checked_wraps_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
        assert lock_check_enabled()
        wrapped = checked(threading.Lock(), "x")
        assert isinstance(wrapped, CheckedLock)
        with wrapped:
            assert wrapped.locked()  # __getattr__ passthrough

    def test_reset_clears_edges(self):
        w = LockWitness()
        a, b = _pair(w)
        with a:
            with b:
                pass
        w.reset()
        assert w.edges() == {}
        with b:
            with a:  # reversed, legal again after reset
                pass

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_while_the_graph_lock_is_held(self):
        """A fork taken while another thread holds the witness's graph
        lock (any witnessed nested acquisition takes it) leaves the
        child a usable witness, not a copy of a lock nobody will ever
        release."""
        with WITNESS._graph_lock:
            pid = os.fork()
            if pid == 0:  # the child: reset at fork, then record an edge
                ok = False
                try:
                    outer = CheckedLock(threading.Lock(), "fork_outer_lock")
                    inner = CheckedLock(threading.Lock(), "fork_inner_lock")
                    with outer:
                        with inner:
                            pass
                    ok = ("fork_outer_lock", "fork_inner_lock") in WITNESS.edges()
                finally:
                    os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on the witness's graph lock")
            time.sleep(0.05)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
