"""Supervised worker recovery: byte-identical answers through SIGKILLs.

The pool's recovery contract has three parts:

* **determinism** — because task seeds are structural (derived from
  the task *index*), a re-executed task is byte-identical to the
  original, so a run that loses workers mid-round returns exactly the
  bytes of an undisturbed run — across pool modes, for samplers and
  plan search alike;
* **budgets** — ``max_worker_restarts=0`` restores the historical
  abort-with-cleanup exactly (RuntimeError naming the worker, every
  shm segment unlinked), and ``task_retry_limit`` bounds how often one
  task may die before the run aborts anyway;
* **lifecycle** — recovery leaves the pool serviceable, and ``close``
  stays idempotent and thread-safe around supervisor respawns.

Kills are injected deterministically at dispatch indices via
:class:`repro.faults.FaultPlan` (the worker that just received a task
is SIGKILLed), so every test run exercises the same crash points.
"""

import multiprocessing
import threading

import pytest

from repro.core.greedy import adaptive_greedy_partition
from repro.core.pool import ForestWork, WorkerPool
from repro.core.smlss import SMLSSSampler
from repro.core.srs import SRSSampler
from repro.faults import FaultPlan, inject

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK,
                                reason="fork start method unavailable")


def fingerprint(estimate) -> tuple:
    return (estimate.probability, estimate.variance, estimate.n_roots,
            estimate.hits, estimate.steps)


def run_pooled(sampler_cls, query, partition, pool):
    """Small tasks/rounds: many dispatch points for kills to land on."""
    if sampler_cls is SRSSampler:
        sampler = SRSSampler(backend="auto", pool=pool,
                             roots_per_task=64, tasks_per_round=4)
    else:
        sampler = sampler_cls(partition, ratio=3, backend="auto",
                              pool=pool, roots_per_task=64,
                              tasks_per_round=4)
    return sampler.run(query, seed=5, max_roots=700)


class TestRecoveryDeterminism:
    @needs_fork
    @pytest.mark.parametrize("sampler_cls", [SRSSampler, SMLSSSampler])
    def test_fork_kills_mid_round_byte_identical(
            self, sampler_cls, small_chain_query, small_chain_partition):
        with WorkerPool(n_workers=2, pool="inline") as pool:
            reference = run_pooled(sampler_cls, small_chain_query,
                                   small_chain_partition, pool)
        plan = FaultPlan(worker_kills=(2, 5))
        with inject(plan):
            with WorkerPool(n_workers=2, pool="fork",
                            max_worker_restarts=4) as pool:
                survived = run_pooled(sampler_cls, small_chain_query,
                                      small_chain_partition, pool)
                assert pool.worker_restarts == 2
                assert pool.tasks_recovered >= 1
        assert plan.fired["pool.dispatch"] == 2
        assert fingerprint(survived) == fingerprint(reference)

    def test_spawn_kill_byte_identical(self, small_chain_query,
                                       small_chain_partition):
        with WorkerPool(n_workers=2, pool="inline") as pool:
            reference = run_pooled(SMLSSSampler, small_chain_query,
                                   small_chain_partition, pool)
        plan = FaultPlan(worker_kills=(3,))
        with inject(plan):
            with WorkerPool(n_workers=2, pool="spawn",
                            max_worker_restarts=4) as pool:
                survived = run_pooled(SMLSSSampler, small_chain_query,
                                      small_chain_partition, pool)
                assert pool.worker_restarts == 1
        assert plan.fired["pool.dispatch"] == 1
        assert fingerprint(survived) == fingerprint(reference)

    def test_thread_mode_skips_kills_and_completes(
            self, small_chain_query, small_chain_partition):
        """Thread workers share the parent process — there is nothing
        to SIGKILL, so the schedule is skipped (not counted) and the
        run completes undisturbed."""
        with WorkerPool(n_workers=2, pool="inline") as pool:
            reference = run_pooled(SRSSampler, small_chain_query,
                                   small_chain_partition, pool)
        plan = FaultPlan(worker_kills=(2, 5))
        with inject(plan):
            with WorkerPool(n_workers=2, pool="thread",
                            max_worker_restarts=4) as pool:
                survived = run_pooled(SRSSampler, small_chain_query,
                                      small_chain_partition, pool)
                assert pool.worker_restarts == 0
        assert plan.fired["pool.dispatch"] == 0
        assert fingerprint(survived) == fingerprint(reference)

    @needs_fork
    def test_pool_serviceable_after_recovery(self, small_chain_query,
                                             small_chain_partition):
        plan = FaultPlan(worker_kills=(1,))
        with inject(plan):
            with WorkerPool(n_workers=2, pool="fork",
                            max_worker_restarts=4) as pool:
                run_pooled(SRSSampler, small_chain_query,
                           small_chain_partition, pool)
                assert pool.worker_restarts == 1
        # Hooks are gone; the same pool shape runs clean afterwards.
        with WorkerPool(n_workers=2, pool="fork") as pool:
            follow_up = run_pooled(SRSSampler, small_chain_query,
                                   small_chain_partition, pool)
        assert follow_up.n_roots == 700

    @needs_fork
    def test_restart_budget_replenishes_between_runs(
            self, small_chain_query, small_chain_partition):
        """The budget bounds restarts per burst of work, not per pool
        lifetime: a second run on the same pool survives its own kill
        even after the first run consumed the whole budget."""
        with WorkerPool(n_workers=2, pool="fork",
                        max_worker_restarts=1) as pool:
            first = FaultPlan(worker_kills=(2,))
            with inject(first):
                run_pooled(SRSSampler, small_chain_query,
                           small_chain_partition, pool)
            second = FaultPlan(worker_kills=(2,))
            with inject(second):
                run_pooled(SRSSampler, small_chain_query,
                           small_chain_partition, pool)
            assert pool.worker_restarts == 2
            assert first.fired["pool.dispatch"] == 1
            assert second.fired["pool.dispatch"] == 1


class TestPlanSearchRecovery:
    @needs_fork
    def test_killed_worker_during_search_plan_identical(
            self, small_chain_query):
        parent = adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=11)
        plan = FaultPlan(worker_kills=(2,))
        with inject(plan):
            with WorkerPool(n_workers=2, pool="fork",
                            max_worker_restarts=4) as pool:
                pooled = adaptive_greedy_partition(
                    small_chain_query, ratio=3, trial_steps=8_000,
                    seed=11, pool=pool)
                assert pool.worker_restarts == 1
        assert plan.fired["pool.dispatch"] == 1
        assert pooled.partition == parent.partition
        assert pooled.best_score == parent.best_score
        assert pooled.search_steps == parent.search_steps


class TestBudgets:
    @needs_fork
    def test_zero_budget_reproduces_historical_abort(
            self, small_chain_query, small_chain_partition):
        """``max_worker_restarts=0`` (the WorkerPool default) must be
        exactly the old behavior: RuntimeError naming the dead worker,
        pool torn down, every shm segment unlinked."""
        from multiprocessing import shared_memory

        pool = WorkerPool(n_workers=2, pool="fork")
        plan = FaultPlan(worker_kills=(1,))
        try:
            handle = pool.register(ForestWork(
                query=small_chain_query, partition=small_chain_partition,
                ratios=(1, 3, 3), backend="vectorized", capacity=16))
            shm_names = [shm.name
                         for (shm, _) in pool._blocks.values()
                         if shm is not None]
            assert shm_names
            with inject(plan):
                with pytest.raises(RuntimeError, match="exited"):
                    pool.run_tasks(handle,
                                   [(16, seed) for seed in range(8)])
            assert pool.closed
            for name in shm_names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
        finally:
            pool.close()

    @needs_fork
    def test_task_retry_limit_aborts_poison_task(self, small_chain_query,
                                                 small_chain_partition):
        """A task whose every execution kills its worker must abort the
        run once its retry budget is spent, however many restarts the
        pool still has."""
        pool = WorkerPool(n_workers=2, pool="fork",
                          max_worker_restarts=10, task_retry_limit=1)
        # Kill at every dispatch: the re-submitted task dies again.
        plan = FaultPlan(worker_kills=range(64))
        try:
            handle = pool.register(ForestWork(
                query=small_chain_query, partition=small_chain_partition,
                ratios=(1, 3, 3), backend="vectorized", capacity=16))
            with inject(plan):
                with pytest.raises(RuntimeError, match="retry limit"):
                    pool.run_tasks(handle,
                                   [(16, seed) for seed in range(8)])
            assert pool.closed
        finally:
            pool.close()

    def test_supervision_knobs_validated(self):
        with pytest.raises(ValueError, match="max_worker_restarts"):
            WorkerPool(n_workers=2, max_worker_restarts=-1)
        with pytest.raises(ValueError, match="task_retry_limit"):
            WorkerPool(n_workers=2, task_retry_limit=-1)
        with pytest.raises(ValueError, match="task_timeout_seconds"):
            WorkerPool(n_workers=2, task_timeout_seconds=0.0)

    def test_kill_worker_rejects_processless_modes(self):
        with WorkerPool(n_workers=2, pool="thread") as pool:
            with pytest.raises(ValueError, match="no killable"):
                pool.kill_worker(0)


class TestCloseDuringRecovery:
    @needs_fork
    def test_close_idempotent_after_recovery(self, small_chain_query,
                                             small_chain_partition):
        plan = FaultPlan(worker_kills=(1,))
        pool = WorkerPool(n_workers=2, pool="fork",
                          max_worker_restarts=4)
        with inject(plan):
            run_pooled(SRSSampler, small_chain_query,
                       small_chain_partition, pool)
        assert pool.worker_restarts == 1
        pool.close()
        pool.close()
        assert pool.closed

    @needs_fork
    def test_concurrent_close_after_recovery(self, small_chain_query,
                                             small_chain_partition):
        """Many threads racing close() around a pool that has respawned
        workers: every call returns, no hook or segment leaks (close
        and recovery serialize on the pool lock)."""
        plan = FaultPlan(worker_kills=(1,))
        pool = WorkerPool(n_workers=2, pool="fork",
                          max_worker_restarts=4)
        with inject(plan):
            run_pooled(SRSSampler, small_chain_query,
                       small_chain_partition, pool)
        errors = []

        def racer():
            try:
                pool.close()
            except Exception as exc:  # pragma: no cover - failure
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.closed
