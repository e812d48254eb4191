"""Order-independent merges of score histograms and failover lists.

Kept, as exactly these three names, for the benchmark's traced
``shard.merge_us`` probe (``bench/rep.py``), which imports them; the
shared-nothing shard path that used them is gone.  ROADMAP's
benchmark-only change drops the probe, after which this package goes.

Every merge is commutative and associative over its inputs (summed or
sorted, never positionally folded), property-tested in
``tests/shard/test_merge_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


@dataclass
class ScoreHistogram:
    """Integer-bucketed 0..100 score distribution, exactly mergeable.

    Scores land in ``counts[floor(score)]`` (100 shares the top
    bucket), ``total`` keeps the exact float sum for the mean.  Merging
    is a bucket-wise sum, so quantiles over merged shards are exact to
    one score point no matter how many viewers each shard held.
    """

    counts: List[int] = field(default_factory=lambda: [0] * 101)
    n: int = 0
    total: float = 0.0

    def add(self, score: float, weight: int = 1) -> None:
        bucket = min(100, max(0, int(score)))
        self.counts[bucket] += weight
        self.n += weight
        self.total += score * weight

    def merge(self, other: "ScoreHistogram") -> "ScoreHistogram":
        out = ScoreHistogram(
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            n=self.n + other.n,
            total=self.total + other.total,
        )
        return out

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the bucketed scores."""
        if self.n == 0:
            return 0.0
        rank = max(1, min(self.n, int(q * self.n + 0.999999)))
        seen = 0
        for bucket, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return float(bucket)
        return 100.0

    def as_dict(self) -> Dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "p10": self.quantile(0.10),
            "p50": self.quantile(0.50),
            "counts": {
                str(bucket): count
                for bucket, count in enumerate(self.counts)
                if count
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ScoreHistogram":
        hist = cls()
        for bucket, count in payload.get("counts", {}).items():
            hist.counts[int(bucket)] = int(count)
        hist.n = int(payload.get("n", sum(hist.counts)))
        hist.total = float(
            payload.get("total", payload.get("mean", 0.0) * hist.n)
        )
        return hist


def merge_score_histograms(
    histograms: Iterable[ScoreHistogram],
) -> ScoreHistogram:
    merged = ScoreHistogram()
    for histogram in histograms:
        merged = merged.merge(histogram)
    return merged


def merge_failovers(
    shard_latencies: Iterable[Sequence[float]],
) -> List[float]:
    """All shards' failover latencies, sorted (order-independent)."""
    merged: List[float] = []
    for latencies in shard_latencies:
        merged.extend(float(value) for value in latencies)
    return sorted(merged)
