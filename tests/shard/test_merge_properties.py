"""The merge layer's contracts, tested property-first.

Order independence: every merge in :mod:`repro.shard.merge` must give
the same answer for any permutation of its inputs.  A merged score
histogram and a merged failover list also equal the one built over the
combined population.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.shard.merge import (
    ScoreHistogram,
    merge_failovers,
    merge_score_histograms,
)


# ----------------------------------------------------------------------
# Order independence (property-based)
# ----------------------------------------------------------------------
@st.composite
def shard_score_lists(draw):
    """Integer-valued scores split across shards (exact float sums)."""
    n_shards = draw(st.integers(min_value=1, max_value=5))
    return [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=100),
                min_size=0,
                max_size=30,
            )
        )
        for _ in range(n_shards)
    ]


@given(shards=shard_score_lists())
def test_score_histogram_merge_is_order_independent(shards):
    def hist_of(scores):
        histogram = ScoreHistogram()
        for score in scores:
            histogram.add(float(score))
        return histogram

    forward = merge_score_histograms(hist_of(s) for s in shards)
    backward = merge_score_histograms(hist_of(s) for s in reversed(shards))
    assert forward.as_dict() == backward.as_dict()

    # And equals one histogram over the concatenated population.
    combined = hist_of([score for shard in shards for score in shard])
    assert forward.counts == combined.counts
    assert forward.n == combined.n
    assert forward.total == combined.total
    assert forward.quantile(0.5) == combined.quantile(0.5)


@given(shards=shard_score_lists())
def test_score_histogram_roundtrips_as_dict(shards):
    histogram = ScoreHistogram()
    for shard in shards:
        for score in shard:
            histogram.add(float(score))
    restored = ScoreHistogram.from_dict(
        dict(histogram.as_dict(), total=histogram.total)
    )
    assert restored.counts == histogram.counts
    assert restored.n == histogram.n
    assert restored.total == histogram.total


@given(
    latencies=st.lists(
        st.lists(st.floats(0.0, 5.0, allow_nan=False), max_size=10),
        min_size=1,
        max_size=5,
    )
)
def test_merge_failovers_is_order_independent(latencies):
    assert merge_failovers(latencies) == merge_failovers(reversed(latencies))
    assert merge_failovers(latencies) == sorted(
        value for shard in latencies for value in shard
    )
