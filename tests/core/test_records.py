"""Tests for per-root records and forest aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import Cohort, ForestAggregate, RootRecord


def make_record(num_levels, hits=0, steps=0, landings=None, skips=None,
                crossings=None):
    record = RootRecord(num_levels)
    record.hits = hits
    record.steps = steps
    if landings:
        record.landings = list(landings)
    if skips:
        record.skips = list(skips)
    if crossings:
        record.crossings = list(crossings)
    return record


def cohort_of(records):
    """The :class:`Cohort` rows of scalar records, in order."""
    fields = ("landings", "skips", "crossings", "hits", "max_level",
              "steps")
    return Cohort(*(np.array([getattr(r, f) for r in records],
                             dtype=np.int64) for f in fields))


def snapshot(agg):
    """Everything an aggregate exposes, for before/after comparisons."""
    return (agg.n_roots, agg.hits, agg.hits_sq_sum, agg.steps,
            list(agg.landings), list(agg.skips), list(agg.crossings),
            agg.level_reach_counts(),
            [m.tolist() for m in agg.per_root_matrices()])


class TestRootRecord:
    def test_initialises_zeroed(self):
        record = RootRecord(3)
        assert record.hits == 0
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 0, 0]

    def test_repr_contains_counters(self):
        record = make_record(2, hits=3)
        assert "hits=3" in repr(record)


class TestForestAggregate:
    def test_add_accumulates_totals(self):
        agg = ForestAggregate(3)
        agg.add(make_record(3, hits=2, steps=10, landings=[0, 1, 1],
                            skips=[0, 0, 1], crossings=[0, 2, 1]))
        agg.add(make_record(3, hits=0, steps=5, landings=[0, 1, 0]))
        assert agg.n_roots == 2
        assert agg.hits == 2
        assert agg.steps == 15
        assert agg.landings == [0, 2, 1]
        assert agg.skips == [0, 0, 1]
        assert agg.crossings == [0, 2, 1]

    def test_hits_sq_sum_tracks_squares(self):
        agg = ForestAggregate(2)
        agg.extend(cohort_of([make_record(2, hits=3),
                              make_record(2, hits=1),
                              make_record(2, hits=0)]))
        assert agg.hits_sq_sum == 9 + 1 + 0

    def test_hit_count_variance_matches_numpy(self):
        agg = ForestAggregate(2)
        counts = [0, 0, 3, 1, 0, 7, 2]
        agg.extend(cohort_of([make_record(2, hits=h) for h in counts]))
        assert agg.hit_count_variance() == pytest.approx(
            np.var(counts, ddof=1))

    def test_hit_count_variance_degenerate(self):
        agg = ForestAggregate(2)
        assert agg.hit_count_variance() == 0.0
        agg.add(make_record(2, hits=5))
        assert agg.hit_count_variance() == 0.0

    def test_split_extend_equals_sequential_adds(self):
        records = [make_record(3, hits=i % 3, steps=i,
                               landings=[0, i % 2, 0]) for i in range(7)]
        combined = ForestAggregate(3)
        for record in records:
            combined.add(record)

        split = ForestAggregate(3)
        split.extend(cohort_of(records[:4]))
        split.extend(cohort_of(records[4:]))

        assert split.n_roots == combined.n_roots
        assert split.hits == combined.hits
        assert split.hits_sq_sum == combined.hits_sq_sum
        assert split.steps == combined.steps
        assert split.landings == combined.landings
        assert (split.per_root_matrices()[3].tolist()
                == combined.per_root_matrices()[3].tolist())
        assert snapshot(split) == snapshot(combined)

    def test_extend_rejects_level_mismatch(self):
        with pytest.raises(ValueError):
            ForestAggregate(2).extend(Cohort.zeros(1, 3))

    def test_per_root_matrices_shapes(self):
        agg = ForestAggregate(4)
        agg.extend(cohort_of([make_record(4) for _ in range(5)]))
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.shape == (5, 4)
        assert skips.shape == (5, 4)
        assert crossings.shape == (5, 4)
        assert hits.shape == (5,)

    def test_per_root_matrices_empty(self):
        landings, skips, crossings, hits = ForestAggregate(3).per_root_matrices()
        assert landings.shape == (0, 3)
        assert hits.shape == (0,)

    def test_per_root_matrices_sum_to_totals(self):
        agg = ForestAggregate(3)
        agg.extend(cohort_of([
            make_record(3, hits=1, landings=[0, 2, 1], skips=[0, 1, 0],
                        crossings=[0, 3, 1]),
            make_record(3, hits=4, landings=[0, 0, 2], skips=[0, 0, 2],
                        crossings=[0, 1, 4]),
        ]))
        landings, skips, crossings, hits = agg.per_root_matrices()
        assert landings.sum(axis=0).tolist() == agg.landings
        assert skips.sum(axis=0).tolist() == agg.skips
        assert crossings.sum(axis=0).tolist() == agg.crossings
        assert hits.sum() == agg.hits

    def test_total_skips(self):
        agg = ForestAggregate(3)
        agg.add(make_record(3, skips=[0, 2, 1]))
        assert agg.total_skips == 3

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            ForestAggregate(0)


class TestMalformedRows:
    """A malformed row set raises ValueError and changes nothing."""

    def seeded(self):
        agg = ForestAggregate(3)
        agg.add(make_record(3, hits=2, steps=7, landings=[0, 1, 1],
                            skips=[0, 0, 1], crossings=[0, 3, 0]))
        return agg

    def assert_rejected(self, agg, fold):
        before = snapshot(agg)
        with pytest.raises(ValueError):
            fold()
        assert snapshot(agg) == before

    def test_extend_rejects_disagreeing_row_counts(self):
        agg = self.seeded()
        cohort = Cohort.zeros(3, 3)._replace(
            landings=np.zeros((2, 3), dtype=np.int64))
        self.assert_rejected(agg, lambda: agg.extend(cohort))

    @pytest.mark.parametrize("field", ["skips", "crossings", "landings"])
    def test_extend_rejects_wrong_width(self, field):
        agg = self.seeded()
        cohort = Cohort.zeros(2, 3)._replace(
            hits=np.array([1, 2]), steps=np.array([5, 6]),
            **{field: np.ones((2, 4), dtype=np.int64)})
        self.assert_rejected(agg, lambda: agg.extend(cohort))

    @pytest.mark.parametrize("field", ["hits", "max_levels", "steps"])
    def test_extend_rejects_short_vectors(self, field):
        agg = self.seeded()
        cohort = Cohort.zeros(2, 3)._replace(
            **{field: np.zeros(1, dtype=np.int64)})
        self.assert_rejected(agg, lambda: agg.extend(cohort))

    @pytest.mark.parametrize("num_levels", [2, 4])
    def test_add_rejects_wrong_width_record(self, num_levels):
        agg = self.seeded()
        record = make_record(num_levels, hits=1, steps=3)
        record.skips[1] = 1
        self.assert_rejected(agg, lambda: agg.add(record))


class TestFoldRecordsByOwner:
    """A fused cohort's contiguous owner runs fold per owner."""

    def test_matches_separate_per_owner_folds(self):
        records = [make_record(3, hits=h, steps=s,
                               landings=[h, 1, 0], crossings=[1, h, 0])
                   for h, s in ((0, 5), (1, 9), (2, 4), (0, 7), (3, 2))]
        owners = [0, 0, 1, 2, 2]
        fused = [ForestAggregate(3) for _ in range(3)]
        for aggregate, rows in zip(fused,
                                   cohort_of(records).split([2, 1, 2])):
            aggregate.extend(rows)
        separate = [ForestAggregate(3) for _ in range(3)]
        for owner, aggregate in enumerate(separate):
            for record, record_owner in zip(records, owners):
                if record_owner == owner:
                    aggregate.add(record)
        for ours, theirs in zip(fused, separate):
            assert ours.n_roots == theirs.n_roots
            assert ours.hits == theirs.hits
            assert ours.steps == theirs.steps
            assert ours.landings == theirs.landings
            assert ours.crossings == theirs.crossings
            assert snapshot(ours) == snapshot(theirs)

    def test_empty_owner_gets_nothing(self):
        aggregates = [ForestAggregate(2), ForestAggregate(2)]
        rows = cohort_of([make_record(2, hits=1)]).split([0, 1])
        for aggregate, owned in zip(aggregates, rows):
            aggregate.extend(owned)
        assert aggregates[0].n_roots == 0
        assert aggregates[1].n_roots == 1

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="owner"):
            cohort_of([make_record(2)]).split([1, 1])


@st.composite
def cohorts(draw):
    """A random cohort plus cut points splitting its rows."""
    num_levels = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=25))
    counts = st.integers(min_value=0, max_value=6)

    def column(size):
        return np.array(draw(st.lists(counts, min_size=size,
                                      max_size=size)), dtype=np.int64)

    cohort = Cohort(
        column(n * num_levels).reshape(n, num_levels),
        column(n * num_levels).reshape(n, num_levels),
        column(n * num_levels).reshape(n, num_levels),
        column(n),
        np.array(draw(st.lists(st.integers(0, num_levels), min_size=n,
                               max_size=n)), dtype=np.int64),
        column(n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return num_levels, cohort, cuts


class TestFoldInvariants:
    @settings(max_examples=60, deadline=None)
    @given(cohorts())
    def test_any_split_of_extend_calls_matches_one_call(self, drawn):
        num_levels, cohort, cuts = drawn
        whole = ForestAggregate(num_levels)
        whole.extend(cohort)
        pieces = ForestAggregate(num_levels)
        bounds = [0] + cuts + [cohort.n_roots]
        for start, stop in zip(bounds, bounds[1:]):
            pieces.extend(Cohort(*(rows[start:stop] for rows in cohort)))
        assert snapshot(pieces) == snapshot(whole)

    @settings(max_examples=60, deadline=None)
    @given(cohorts())
    def test_level_reach_counts_are_suffix_counts(self, drawn):
        num_levels, cohort, _ = drawn
        agg = ForestAggregate(num_levels)
        agg.extend(cohort)
        maxima = cohort.max_levels.tolist()
        assert agg.level_reach_counts() == [
            sum(level >= i for level in maxima)
            for i in range(num_levels + 1)]

    @settings(max_examples=60, deadline=None)
    @given(cohorts())
    def test_hit_count_variance_is_sample_variance(self, drawn):
        num_levels, cohort, _ = drawn
        agg = ForestAggregate(num_levels)
        agg.extend(cohort)
        if cohort.n_roots < 2:
            assert agg.hit_count_variance() == 0.0
        else:
            assert agg.hit_count_variance() == pytest.approx(
                np.var(cohort.hits, ddof=1), rel=1e-9, abs=1e-12)
