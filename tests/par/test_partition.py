"""Static partitioning: the with-loop scheduler's chunker.

(``repro.par`` no longer partitions anything — the engine's strip plan
is the one decomposition — but the chunker these tests pin is still the
SaC scheduler's.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac.eval.scheduler import split_bounds, split_extent


class TestSplitExtent:
    """Edge cases of the chunking implementation."""

    def test_parts_exceeding_extent_clamp_to_one_cell_chunks(self):
        assert split_extent(0, 3, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_zero_extent_yields_no_chunks(self):
        assert split_extent(5, 5, 4) == []
        assert split_extent(7, 3, 2) == []

    def test_single_part_returns_whole_interval(self):
        assert split_extent(2, 9, 1) == [(2, 9)]

    def test_remainder_goes_to_leading_chunks(self):
        assert split_extent(0, 10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_min_size_floor_limits_part_count(self):
        chunks = split_extent(0, 10, 8, min_size=3)
        assert chunks == [(0, 4), (4, 7), (7, 10)]
        assert all(hi - lo >= 3 for lo, hi in chunks)

    def test_extent_smaller_than_min_size_still_yields_one_chunk(self):
        assert split_extent(0, 2, 4, min_size=5) == [(0, 2)]

    @given(
        lower=st.integers(-50, 50),
        extent=st.integers(0, 200),
        parts=st.integers(1, 32),
        min_size=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunks_tile_the_interval(self, lower, extent, parts, min_size):
        upper = lower + extent
        chunks = split_extent(lower, upper, parts, min_size=min_size)
        if extent == 0:
            assert chunks == []
            return
        assert chunks[0][0] == lower
        assert chunks[-1][1] == upper
        for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1
        if extent >= min_size:
            assert min(sizes) >= min_size


class TestSplitBoundsCompat:
    """split_bounds keeps its scheduler contract on top of split_extent."""

    def test_parts_exceeding_extent(self):
        chunks = split_bounds((0, 0), (2, 5), 8)
        assert chunks == [((0, 0), (1, 5)), ((1, 0), (2, 5))]

    def test_zero_extent_box(self):
        assert split_bounds((3,), (3,), 4) == []

    def test_single_part(self):
        assert split_bounds((1, 2), (7, 9), 1) == [((1, 2), (7, 9))]

    def test_rank_zero_box_passes_through(self):
        assert split_bounds((), (), 4) == [((), ())]
