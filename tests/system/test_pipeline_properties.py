"""Property-based tests for the pipeline scheduling machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.pipeline import pipeline_schedule

stage_arrays = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
            min_size=n, max_size=n,
        ),
    )
)


class TestScheduleProperties:
    @given(stage_arrays, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, stages, depth):
        """Pipelined makespan lies between the bottleneck-stage lower
        bound and the fully sequential upper bound."""
        times = np.column_stack(stages)
        result = pipeline_schedule(times, depth)
        lower = max(times.sum(axis=0).max(), times.sum(axis=1).max())
        upper = times.sum()
        assert lower - 1e-9 <= result.makespan <= upper + 1e-9

    @given(stage_arrays)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_capacity(self, stages):
        """The makespan never increases as the prefetch depth grows."""
        times = np.column_stack(stages)
        makespans = [
            pipeline_schedule(times, depth).makespan for depth in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))

    @given(stage_arrays, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_finish_times_nondecreasing(self, stages, depth):
        """Every stage serves batches in order."""
        times = np.column_stack(stages)
        result = pipeline_schedule(times, depth)
        assert np.all(np.diff(result.finish_times, axis=0) >= -1e-12)

    @given(stage_arrays, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_admission_waits_for_the_prefetch_window(self, stages, depth):
        """Batch i's first stage starts no earlier than batch i-depth
        leaves the last stage."""
        times = np.column_stack(stages)
        finish = pipeline_schedule(times, depth).finish_times
        first_start = finish[:, 0] - times[:, 0]
        assert np.all(first_start[depth:] >= finish[:-depth, -1] - 1e-12)
