"""Per-client quality-of-experience scorecards, derived from the bus.

The paper's headline claim is *glitch-free playback through failures*;
a scorecard turns one client's event stream into the numbers that claim
is judged by: startup latency, stall (glitch) episodes and total stall
time, rebuffer ratio, skipped/late frames, migration count, emergency
refill episodes and the extra bandwidth they consumed.

The same accumulator works online (fed by the run's
:class:`~repro.telemetry.slo.SloMonitor`, or on its own through
:meth:`QoEAccumulator.attach`) and offline
(:func:`scorecards_from_timeline` over a parsed JSONL export) — both
consume only event ``(t, kind, fields)`` triples, never simulator
state, so a scorecard computed during the run equals one recomputed
from the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, KeysView, List, Optional, Set, Tuple

from repro.telemetry.text import Table


def _client_name(value: object) -> str:
    """Normalize the two client spellings to the short name.

    Client-side events carry ``client0``; server-side events carry the
    process id string ``client0@5``.  The short name keys everything.
    """
    return str(value).split("@", 1)[0]


def is_handoff(fields: Dict) -> bool:
    """A ``client.migrate`` past the first adoption (from ``"None"``)."""
    return str(fields.get("from_server")) not in ("None", "")


@dataclass
class QoEScorecard:
    """One client's session, scored.

    ``score()`` folds the raw facts into a 0–100 figure of merit:
    start from 100, subtract up to 50 for rebuffering (50 × rebuffer
    ratio, the dominant QoE driver), 2 per stall episode (cap 20), up
    to 15 for skipped frames (15 × skip ratio) and 1 per migration
    (cap 5).  A glitch-free, migration-free session scores 100.
    """

    client: str
    movie: str = ""
    start_t: float = 0.0
    end_t: float = 0.0
    startup_s: Optional[float] = None
    stall_count: int = 0
    stall_s: float = 0.0
    skipped_frames: int = 0
    displayed_frames: int = 0
    late_frames: int = 0
    migrations: int = 0
    resumes: int = 0
    emergencies: int = 0
    emergency_extra_frames: float = 0.0
    admission_rejects: int = 0
    degrade_fraction: float = 0.0
    finished: bool = False

    @property
    def watch_s(self) -> float:
        return max(0.0, self.end_t - self.start_t)

    @property
    def rebuffer_ratio(self) -> float:
        return self.stall_s / self.watch_s if self.watch_s > 0 else 0.0

    @property
    def glitch_free(self) -> bool:
        return self.stall_count == 0

    @property
    def emergency_share(self) -> float:
        """Extra emergency bandwidth as a fraction of the mean rate.

        The paper budgets emergencies at <= 40% of the stream rate;
        this is the measured counterpart, averaged over the session.
        """
        if self.watch_s <= 0 or self.displayed_frames <= 0:
            return 0.0
        base_rate = self.displayed_frames / self.watch_s
        if base_rate <= 0:
            return 0.0
        return (self.emergency_extra_frames / self.watch_s) / base_rate

    def window_penalties(self) -> Tuple[float, float, float]:
        """The stall, migration and reject penalties: the terms that
        need no whole-session watch time, all an incident window can
        charge."""
        return (
            min(20.0, 2.0 * self.stall_count),
            min(5.0, float(self.migrations)),
            min(35.0, 3.0 * self.admission_rejects),
        )

    def score(self) -> float:
        stalls, migrations, rejects = self.window_penalties()
        penalty = 50.0 * min(1.0, self.rebuffer_ratio)
        penalty += stalls
        shown = max(1, self.displayed_frames + self.skipped_frames)
        penalty += 15.0 * min(1.0, self.skipped_frames / shown)
        penalty += migrations
        # Admission outcomes: each busy-signal reject delays the viewer
        # a retry round — being denied service repeatedly outweighs
        # watching a degraded stream, though rebuffering still dominates
        # — and a degraded grant costs by how much quality was shaved.
        # Without these a never-admitted client would score a perfect
        # 100.
        penalty += rejects
        penalty += min(10.0, 10.0 * max(0.0, self.degrade_fraction))
        return max(0.0, 100.0 - penalty)

    def as_dict(self) -> Dict:
        return {
            "client": self.client,
            "movie": self.movie,
            "watch_s": self.watch_s,
            "startup_s": self.startup_s,
            "stall_count": self.stall_count,
            "stall_s": self.stall_s,
            "rebuffer_ratio": self.rebuffer_ratio,
            "skipped_frames": self.skipped_frames,
            "displayed_frames": self.displayed_frames,
            "late_frames": self.late_frames,
            "migrations": self.migrations,
            "resumes": self.resumes,
            "emergencies": self.emergencies,
            "emergency_extra_frames": self.emergency_extra_frames,
            "emergency_share": self.emergency_share,
            "admission_rejects": self.admission_rejects,
            "degrade_fraction": self.degrade_fraction,
            "glitch_free": self.glitch_free,
            "finished": self.finished,
            "score": self.score(),
        }


class QoEAccumulator:
    """Feeds ``(t, kind, fields)`` triples into per-client scorecards."""

    def __init__(self) -> None:
        self._cards: Dict[str, QoEScorecard] = {}
        #: The clients heard on a ``client.*`` event (a card can start
        #: earlier, from a session span or an admission reject).
        self.heard: Set[str] = set()
        # Open stall episode start per client.
        self._stall_since: Dict[str, float] = {}
        #: Rate state per client: [time of its last rate event, extra
        #: frames/s above base while refilling, base frames/s].
        self.rates: Dict[str, List[float]] = {}
        self._last_t = 0.0

    def card(self, client: str) -> QoEScorecard:
        name = _client_name(client)
        card = self._cards.get(name)
        if card is None:
            card = self._cards[name] = QoEScorecard(client=name)
        return card

    # ------------------------------------------------------------------
    # Event feed
    # ------------------------------------------------------------------
    def feed(self, t: float, kind: str, fields: Dict) -> None:
        self._last_t = max(self._last_t, t)
        if kind.startswith("client."):
            self._feed_client(t, kind, fields)
        elif kind.startswith("server.admission."):
            self._feed_admission(t, kind, fields)
        elif kind in ("server.rate", "server.emergency.step"):
            self._feed_rate(t, kind, fields)
        elif kind in ("span.begin", "span.end", "span.abandoned"):
            self._feed_span(t, kind, fields)
        elif kind == "metric.sample":
            # Keeps ``displayed_frames`` current for sessions that never
            # close cleanly (run ends mid-movie, span abandoned) — the
            # span.end counters, when they do arrive, agree with the
            # last sample.
            if fields.get("series") == "displayed_cumulative":
                card = self.card(fields.get("owner", "?"))
                card.displayed_frames = max(
                    card.displayed_frames,
                    int(float(fields.get("value", 0.0))),
                )

    def _feed_client(self, t: float, kind: str, fields: Dict) -> None:
        card = self.card(fields.get("client", "?"))
        card.end_t = max(card.end_t, t)
        self.heard.add(card.client)
        if kind == "client.stall.begin":
            card.stall_count += 1
            self._stall_since[card.client] = t
        elif kind == "client.stall.end":
            since = self._stall_since.pop(card.client, None)
            if since is not None:
                card.stall_s += t - since
        elif kind == "client.skip":
            card.skipped_frames = int(fields.get("total", card.skipped_frames))
        elif kind == "client.migrate":
            if is_handoff(fields):
                card.migrations += 1
        elif kind == "client.resume":
            card.resumes += 1
        elif kind == "client.playback.start":
            if card.startup_s is None:
                card.startup_s = t - card.start_t
        elif kind == "client.flow":
            if fields.get("message") == "emergency":
                card.emergencies += 1

    def _feed_admission(self, t: float, kind: str, fields: Dict) -> None:
        # Only policy outcomes carry a client; other server.admission.*
        # events (e.g. the view-settle queue's drain) are not per-client.
        if kind not in (
            "server.admission.reject", "server.admission.degrade",
        ):
            return
        card = self.card(fields.get("client", "?"))
        card.end_t = max(card.end_t, t)
        if kind == "server.admission.reject":
            card.admission_rejects += 1
        else:
            granted = float(fields.get("quality_fps", 0.0))
            base = float(fields.get("base_fps", 0.0))
            if base > 0:
                card.degrade_fraction = max(0.0, 1.0 - granted / base)

    def _feed_rate(self, t: float, kind: str, fields: Dict) -> None:
        card = self.card(fields.get("client", "?"))
        name = card.client
        self._integrate_extra(name, t)
        rate = float(fields.get("rate_fps", 0.0))
        state = self.rates.get(name)
        if kind == "server.rate":
            base = float(fields.get("base_fps", rate))
            refilling = float(fields.get("emergency", 0.0)) > 0
        else:  # server.emergency.step keeps the base it found
            base = rate if state is None else state[2]
            refilling = float(fields.get("quantity", 0.0)) > 0
        extra = max(0.0, rate - base) if refilling else 0.0
        self.rates[name] = [t, extra, base]

    def _integrate_extra(self, name: str, t: float) -> None:
        state = self.rates.get(name)
        if state is not None and t > state[0] and state[1] > 0:
            self.card(name).emergency_extra_frames += (t - state[0]) * state[1]
        if state is not None:
            state[0] = t

    def _feed_span(self, t: float, kind: str, fields: Dict) -> None:
        if fields.get("span") != "client.session":
            return
        card = self.card(fields.get("key", "?"))
        if kind == "span.begin":
            card.start_t = t
            card.end_t = max(card.end_t, t)
            card.movie = str(fields.get("movie", card.movie))
        else:
            card.end_t = max(card.end_t, t)
            card.finished = kind == "span.end"
            card.displayed_frames = int(
                fields.get("displayed", card.displayed_frames)
            )
            card.late_frames = int(fields.get("late", card.late_frames))
            card.skipped_frames = int(
                fields.get("skipped", card.skipped_frames)
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finish(self, end_t: Optional[float] = None) -> Dict[str, QoEScorecard]:
        """Settle open episodes at ``end_t`` and return the scorecards."""
        t = self._last_t if end_t is None else max(end_t, self._last_t)
        for name, since in list(self._stall_since.items()):
            self._cards[name].stall_s += t - since
            self._stall_since[name] = t
        for name in list(self.rates):
            self._integrate_extra(name, t)
        for card in self._cards.values():
            card.end_t = max(card.end_t, t)
        return dict(self._cards)

    def scorecards(self) -> Dict[str, QoEScorecard]:
        return dict(self._cards)

    def stalled(self) -> KeysView[str]:
        """The clients inside a stall episode now."""
        return self._stall_since.keys()

    def attach(self, telemetry):
        """Feed this accumulator from a live bus, for a run that judges
        no SLO rule set (an :class:`~repro.telemetry.slo.SloMonitor`
        feeds its own); returns the subscription."""
        return telemetry.subscribe(
            lambda event: self.feed(event.time, event.kind, event.fields),
            prefixes=QOE_PREFIXES,
        )


#: Bus prefixes a QoE observer needs (everything else is noise to it).
QOE_PREFIXES = (
    "client.", "server.rate", "server.emergency", "server.admission",
    "span.", "metric.sample",
)


def scorecards_from_timeline(timeline) -> Dict[str, QoEScorecard]:
    """Offline scorecards from a parsed export (``repro-vod report``)."""
    from repro.telemetry.report import replay

    accumulator = QoEAccumulator()
    return accumulator.finish(replay(timeline.events, accumulator.feed))


def render_scorecards(cards: Dict[str, QoEScorecard]) -> str:
    """A text table of QoE scorecards, worst score first."""
    table = Table(
        "Per-client QoE scorecards",
        ["client", "score", "startup (s)", "stalls", "stall (s)",
         "rebuffer", "skipped", "migr", "emerg", "extra (fr)", "glitch-free"],
    )
    ordered = sorted(cards.values(), key=lambda c: (c.score(), c.client))
    for card in ordered:
        table.add_row(
            card.client,
            f"{card.score():.1f}",
            "-" if card.startup_s is None else f"{card.startup_s:.2f}",
            card.stall_count,
            f"{card.stall_s:.2f}",
            f"{card.rebuffer_ratio:.3f}",
            card.skipped_frames,
            card.migrations,
            card.emergencies,
            f"{card.emergency_extra_frames:.0f}",
            "yes" if card.glitch_free else "NO",
        )
    return table.render()
