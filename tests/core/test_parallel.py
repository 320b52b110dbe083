"""Tests for parallel root-path simulation: g-MLSS / s-MLSS samplers
sharding their root trees over a :class:`WorkerPool` (``pool=``)."""

import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.pool import WorkerPool
from repro.core.smlss import SMLSSSampler

from ..helpers import assert_close_to


def run_pooled(query, partition, n_workers, seed, max_roots,
               sampler_cls=GMLSSSampler, mode="fork", **sampler_kwargs):
    sampler_kwargs.setdefault("ratio", 3)
    with WorkerPool(n_workers=n_workers, pool=mode) as pool:
        sampler = sampler_cls(partition, backend="auto", pool=pool,
                              **sampler_kwargs)
        return sampler.run(query, max_roots=max_roots, seed=seed)


class TestRunParallelMlss:
    def test_single_worker_matches_exact(self, small_chain_query,
                                         small_chain_partition,
                                         small_chain_exact):
        estimate = run_pooled(small_chain_query, small_chain_partition,
                              n_workers=1, seed=1, max_roots=2000)
        assert estimate.n_roots == 2000
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_two_workers_match_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        with WorkerPool(n_workers=2) as pool:
            assert pool.n_workers == 2
            estimate = GMLSSSampler(
                small_chain_partition, ratio=3, backend="auto",
                pool=pool).run(small_chain_query, max_roots=2000, seed=2)
        assert estimate.n_roots == 2000
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_reproducible_under_seed(self, small_chain_query,
                                     small_chain_partition):
        runs = [run_pooled(small_chain_query, small_chain_partition,
                           n_workers=2, seed=5, max_roots=400)
                for _ in range(2)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].steps == runs[1].steps

    def test_results_invariant_under_worker_count(self, small_chain_query,
                                                  small_chain_partition):
        """Regression: shard seeds used to derive from ``n_workers``, so
        changing the worker count changed the answer.  Task seeds now
        derive from the task index alone — the worker count must change
        nothing but latency."""
        runs = [run_pooled(small_chain_query, small_chain_partition,
                           n_workers=n, seed=17, max_roots=600)
                for n in (1, 2, 4)]
        reference = (runs[0].probability, runs[0].variance, runs[0].steps,
                     runs[0].hits)
        for run in runs[1:]:
            assert (run.probability, run.variance, run.steps,
                    run.hits) == reference

    def test_results_invariant_under_pool_mode(self, small_chain_query,
                                               small_chain_partition):
        by_mode = [run_pooled(small_chain_query, small_chain_partition,
                              n_workers=2, seed=23, max_roots=300, mode=mode)
                   for mode in ("inline", "fork")]
        assert by_mode[0].probability == by_mode[1].probability
        assert by_mode[0].steps == by_mode[1].steps

    def test_smlss_invariant_under_worker_count(self, small_chain_query,
                                                small_chain_partition):
        runs = [run_pooled(small_chain_query, small_chain_partition,
                           n_workers=n, seed=29, max_roots=500,
                           sampler_cls=SMLSSSampler)
                for n in (1, 3)]
        assert runs[0].probability == runs[1].probability
        assert runs[0].variance == runs[1].variance

    @pytest.mark.parametrize("kwargs", [
        {"ratio": 0}, {"batch_roots": 0}, {"n_workers": 0},
    ])
    def test_rejects_bad_parameters(self, small_chain_query,
                                    small_chain_partition, kwargs):
        defaults = dict(n_workers=1, seed=0, max_roots=10)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            run_pooled(small_chain_query, small_chain_partition, **defaults)
