"""Order-independent merging of per-shard results.

Shared-nothing shards each finish with their own failover latencies,
QoE score histograms and flight-recorder incidents.  The functions here
fold those into one run-level view that cannot depend on worker
completion order: every merge is commutative and associative over its
inputs (shards are keyed, summed or sorted, never positionally folded).
Property-tested in ``tests/shard/test_merge_properties.py`` and
``tests/shard/test_incident_merge.py``.

Single-process equivalence holds for what is summed: a merged
:class:`ScoreHistogram` equals one histogram over the combined
population, and the merged failover list equals the combined one.
:func:`sharded_slo_summary` re-judges the paper's rules on one
whole-run window built from those merged facts.

At the million-viewer scale per-client scorecards stop being a
reasonable wire format (a dict of 10⁶ dataclasses per shard), so the
scale rig summarizes each shard's viewers into a
:class:`ScoreHistogram` — integer-bucketed 0..100 QoE scores whose
merge is exact (bucket-wise sum) and whose quantiles are exact to one
score point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.errors import ReproError
from repro.telemetry.slo import RuleState, WindowSnapshot, default_rules


class MergeError(ReproError):
    """Per-shard results that cannot be merged coherently."""


# ----------------------------------------------------------------------
# QoE score histograms
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------
def slo_summary_from_windows(
    windows: Sequence[WindowSnapshot],
    rules=None,
    burn_threshold: float = 1.0,
) -> Dict[str, Dict]:
    """Evaluate SLO rules over a closed window sequence.

    The same fold :class:`~repro.telemetry.slo.SloMonitor` applies
    online (breach = ok->not-ok transition, burn = burn rate over the
    threshold), minus the bus emissions — so a window sequence gets the
    verdicts a monitor that closed those windows would have reported.
    """
    rules = tuple(rules) if rules is not None else default_rules()
    states = {rule.name: RuleState(rule=rule) for rule in rules}
    for window in windows:
        for rule in rules:
            verdict = rule.evaluate(window)
            state = states[rule.name]
            state.windows += 1
            state.value = verdict.value
            state.worst = max(state.worst, abs(verdict.value))
            if verdict.burn_rate is not None and (
                verdict.burn_rate >= burn_threshold
            ):
                state.burn_windows += 1
            if not verdict.ok and state.ok:
                state.breaches += 1
            state.ok = verdict.ok
    return {name: state.as_dict() for name, state in states.items()}


def sharded_slo_summary(
    n_clients: int,
    duration_s: float,
    failover_latencies: Sequence[float],
    stalled_clients: int = 0,
    rules=None,
) -> Dict[str, Dict]:
    """SLO verdicts for a merged shared-nothing scale run.

    Flyweight shards run with telemetry off (measurement mode), so
    there is no per-window stream to merge; instead the paper's rules
    evaluate one whole-run window built from the merged facts: the
    viewer population, which viewers stalled (none can, on clean
    links — rows advance arithmetically), and every measured failover
    latency.  Uses the real rule objects, not a reimplementation.
    """
    latencies = sorted(float(value) for value in failover_latencies)
    window = WindowSnapshot(
        start=0.0,
        end=float(duration_s),
        clients=int(n_clients),
        stalled=int(stalled_clients),
        failover_durations=latencies,
        window_failovers=len(latencies),
        extra_frames=0.0,
        base_frames=0.0,
    )
    return slo_summary_from_windows([window], rules=rules)


# ----------------------------------------------------------------------
# Incidents (flight recorder)
# ----------------------------------------------------------------------
def merge_incidents(shard_incidents: Iterable) -> List:
    """Merge per-shard flight-recorder incidents, order-independently.

    ``shard_incidents`` yields ``(shard_id, incidents)`` pairs where
    each incident is an :class:`~repro.telemetry.flight.Incident` or
    its ``as_dict()`` form.  Every incident is stamped with its shard,
    then the whole set is sorted by the deterministic key
    ``(trigger_t, shard, id)`` — so the merged sequence cannot depend
    on worker completion order (the reversed-input self-check in the
    scale rig holds by construction).

    Incidents from *different* shards whose windows overlap in sim time fold into one cross-shard
    incident — the same injected fault seen from four shards is one
    event, not four.  The folded incident unions the windows, keeps
    the earliest trigger as primary, concatenates triggers/breakdowns/
    chains/excerpts in deterministic sorted order, sums the QoE impact
    (shards own disjoint viewers) and lists its members.
    """
    import json as _json

    from repro.telemetry.flight import Incident

    stamped: List[Incident] = []
    for shard_id, incidents in shard_incidents:
        for item in incidents:
            if isinstance(item, Incident):
                payload = item.as_dict()
            else:
                payload = dict(item)
            incident = Incident.from_dict(payload)
            incident.shard = str(shard_id)
            stamped.append(incident)
    stamped.sort(key=lambda i: (i.trigger_t, i.shard or "", i.id))

    def _stable(record: Dict) -> str:
        return _json.dumps(record, sort_keys=True, default=str)

    groups: List[List[Incident]] = []
    for incident in stamped:
        if groups:
            group = groups[-1]
            group_end = max(i.window_end for i in group)
            # Group on the *trigger* falling inside the open window, not
            # on raw window overlap: a pre-trigger lookback legitimately
            # reaches back into the previous incident without making the
            # two one event.
            if incident.trigger_t <= group_end:
                group.append(incident)
                continue
        groups.append([incident])

    merged: List[Incident] = []
    for index, group in enumerate(groups, start=1):
        if len(group) == 1:
            incident = group[0]
            out = Incident.from_dict(incident.as_dict())
            out.id = f"incident#{index}"
            out.qoe = dict(incident.qoe)
            out.qoe["members"] = [
                {"shard": incident.shard, "id": incident.id}
            ]
            merged.append(out)
            continue
        primary = group[0]
        triggers = sorted(
            (t for i in group for t in i.triggers),
            key=lambda t: (t.get("t", 0.0), t.get("kind", ""), _stable(t)),
        )
        breakdowns = sorted(
            (b for i in group for b in i.breakdowns),
            key=lambda b: (
                b.get("crash_t", 0.0), b.get("client", ""), _stable(b)
            ),
        )
        chains = sorted(
            (c for i in group for c in i.chains),
            key=lambda c: (c.get("start", 0.0), c.get("cause", ""), _stable(c)),
        )
        excerpt = sorted(
            (e for i in group for e in i.excerpt),
            key=lambda e: (e.get("t", 0.0), e.get("kind", ""), _stable(e)),
        )
        totals: Dict[str, float] = {}
        top: List[Dict] = []
        clients_hit = 0
        for incident in group:
            qoe = incident.qoe or {}
            clients_hit += int(qoe.get("clients_hit", 0))
            for key, value in (qoe.get("totals") or {}).items():
                totals[key] = totals.get(key, 0) + value
            top.extend(qoe.get("top") or [])
        top.sort(key=lambda i: (-i.get("penalty", 0.0), i.get("client", "")))
        merged.append(Incident(
            id=f"incident#{index}",
            trigger_kind=primary.trigger_kind,
            trigger_t=primary.trigger_t,
            trigger_detail=primary.trigger_detail,
            shard=",".join(sorted({i.shard or "" for i in group})),
            window_start=min(i.window_start for i in group),
            window_end=max(i.window_end for i in group),
            triggers=triggers,
            n_triggers=sum(i.n_triggers for i in group),
            pre_records=sum(i.pre_records for i in group),
            captured_records=sum(i.captured_records for i in group),
            truncated_records=sum(i.truncated_records for i in group),
            breakdowns=breakdowns,
            n_breakdowns=sum(i.n_breakdowns for i in group),
            chains=chains,
            n_chains=sum(i.n_chains for i in group),
            qoe={
                "clients_hit": clients_hit,
                "totals": totals,
                "top": top[:10],
                "members": [
                    {"shard": i.shard, "id": i.id, "trigger_t": i.trigger_t}
                    for i in group
                ],
            },
            excerpt=excerpt,
        ))
    return merged


# ----------------------------------------------------------------------
# Plain sequences
# ----------------------------------------------------------------------
def merge_failovers(
    shard_latencies: Iterable[Sequence[float]],
) -> List[float]:
    """All shards' failover latencies, sorted (order-independent)."""
    merged: List[float] = []
    for latencies in shard_latencies:
        merged.extend(float(value) for value in latencies)
    return sorted(merged)
