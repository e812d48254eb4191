"""Service-level invariant checking under injected faults.

The checker encodes the paper's fault-tolerance contract as runtime
assertions over a running deployment:

1. **Exactly-one adoption** — after a serving replica crashes or
   detaches, each of its clients is re-adopted by exactly one surviving
   replica (within a grace period); no client is left orphaned while a
   reachable replica holds its movie, and no two replicas keep serving
   the same client.
2. **Offset continuity** — adopting an orphan resumes from the downed
   server's last position: the new offset neither regresses nor skips
   ahead of it by more than the multicast-state staleness bound (0.5 s
   of frames at the emergency-inflated rate).  Spurious takeovers by a
   partitioned minority are excluded — their knowledge is legitimately
   staler, and rules 1 and 3 govern how they resolve.
3. **No double delivery** — the display sequence is strictly monotone:
   the client never shows more frames than its playhead advanced over.
4. **Underrun => glitch** — whenever playback runs completely dry the
   decoder must have an open stall (the glitch is *recorded*, never
   silently swallowed), and the stall bookkeeping stays consistent.
5. **Bounded flush** — a view change ends.  No group member stays
   ``FLUSHING`` longer than the protocol's own escape hatches allow
   (``FLUSH_STALL_ADOPT`` + ``COMMIT_TIMEOUT`` + one ``FLUSH_TIMEOUT``)
   while its daemon suspects nobody in the installed view.  A flush that
   outlives them is waiting for a vector nobody will send; every
   ``multicast()`` in the group is parked behind it, so for a session
   group the viewer's flow control and VCR commands stop reaching its
   server although rules 1 – 4 all hold.

The checker is a read-only observer: it samples client/server state on
a fixed cadence, subscribes to server lifecycle events and GCS view
installations, draws no random numbers and mutates nothing — attaching
it does not perturb the simulation it watches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.gcs.membership import (
    COMMIT_TIMEOUT,
    FLUSH_STALL_ADOPT,
    FLUSH_TIMEOUT,
    MemberState,
)
from repro.media.movie import DEFAULT_FPS
from repro.sim.process import Timer

#: Rule 5: the longest a flush may last with no suspicion to explain it.
FLUSH_BOUND_S = FLUSH_STALL_ADOPT + COMMIT_TIMEOUT + FLUSH_TIMEOUT
#: Rule 2: the paper's multicast-state staleness.  Servers synchronize
#: every half second, so a takeover offset may legitimately differ from
#: the best-known offset by up to this much transmission time.
STALENESS_BOUND_S = 0.5
#: Rule 1: how long a client may go unserved (while a replica is
#: reachable) before it is orphaned.  Covers failure detection, view
#: agreement, the 3-sync-period orphan repair and the session handshake.
ORPHAN_GRACE_S = 8.0
#: Rule 1: how long two replicas may transiently serve the same client.
#: Two servers that admitted one client resolve it when they meet in the
#: client's session-group view (the smallest server keeps it); while
#: those views stay split nothing resolves it (DESIGN §8.5).
DOUBLE_SERVE_GRACE_S = 6.0
#: The sampling cadence (s).
SAMPLE_PERIOD_S = 0.25


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    time: float
    rule: str
    client: Optional[str]
    detail: str

    def __str__(self) -> str:
        who = f" client={self.client}" if self.client else ""
        return f"[t={self.time:8.3f}s] {self.rule}{who}: {self.detail}"


@dataclass
class _ClientTrack:
    """Per-client rolling state between samples."""

    max_offset: int = 0
    prev_displayed: int = 0
    prev_index: int = 0
    prev_stall_events: int = 0
    prev_epoch: int = 0
    prev_sampled: bool = False
    prev_dry: bool = False
    zero_serving_since: Optional[float] = None
    zero_reported: bool = False
    double_serving_since: Optional[float] = None
    double_reported: bool = False
    awaiting_adoption_since: Optional[float] = None
    # Offset the downed server had streamed to when it went away — the
    # authoritative baseline for the next (orphan-adopting) takeover.
    down_offset: Optional[int] = None


class InvariantChecker:
    """Watches a deployment and records :class:`Violation` objects.

    ``deployment`` is the deployment under test.  Call :meth:`install`
    once it (and ideally before any client) is built.
    """

    #: Frames a takeover offset may differ from the best shared offset:
    #: the staleness bound at the emergency-inflated rate (40% extra
    #: bandwidth) plus a little merge slack.
    offset_bound_frames = int(math.ceil(1.4 * DEFAULT_FPS * STALENESS_BOUND_S)) + 4

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.network = deployment.network
        self.violations: List[Violation] = []
        self.takeovers: List[Tuple[float, str, str, int]] = []
        self.samples = 0
        self.view_log: List[Tuple[float, int, str, int]] = []
        self._tracks: Dict[str, _ClientTrack] = {}
        # Rule 5: (daemon, group) -> (first sample seen flushing, views
        # installed by then, already reported).
        self._flushing: Dict[Tuple[int, str], Tuple[float, int, bool]] = {}
        self._timer: Optional[Timer] = None
        self._installed = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self) -> "InvariantChecker":
        if self._installed:
            return self
        self._installed = True
        self.deployment.add_server_observer(self)
        self.deployment.domain.add_view_observer(self._on_view_installed)
        self._timer = Timer(
            self.sim,
            SAMPLE_PERIOD_S,
            self._sample,
            start_delay=SAMPLE_PERIOD_S,
        )
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _violation(self, rule: str, client: Optional[str], detail: str) -> None:
        self.violations.append(Violation(self.sim.now, rule, client, detail))
        tel = self.sim.telemetry
        if tel.active:
            # The flight recorder treats a violation as an incident
            # trigger; the checker stays a pure observer (the emission
            # draws no randomness and schedules nothing).
            tel.emit(
                "invariant.violation", rule=rule, client=client, detail=detail
            )

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if not self.violations:
            return f"OK: 0 violations over {self.samples} samples"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [str(violation) for violation in self.violations]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Server lifecycle observers (read-only)
    # ------------------------------------------------------------------
    def on_server_crash(self, server: Any, clients: Tuple[Any, ...]) -> None:
        self._note_server_down(server, clients)

    def on_server_shutdown(self, server: Any, clients: Tuple[Any, ...]) -> None:
        self._note_server_down(server, clients)

    def _note_server_down(self, server: Any, clients: Tuple[Any, ...]) -> None:
        for process in clients:
            client = self._client_by_process(process)
            if client is None or client.finished:
                continue
            track = self._track(client.name)
            if track.awaiting_adoption_since is None:
                track.awaiting_adoption_since = self.sim.now
                # A server's replicas survive crash()/shutdown() into
                # the notification, so the downed server's own record is
                # the authoritative last-streamed position for this client.
                replica = server.movies.get(client.movie_title)
                record = replica.state.record_of(process) if replica else None
                track.down_offset = record.offset if record else None

    def on_session_start(self, server: Any, record: Any, takeover: bool) -> None:
        client = self._client_by_process(record.client)
        if client is None:
            return
        track = self._track(client.name)
        adopting_orphan = track.awaiting_adoption_since is not None
        track.awaiting_adoption_since = None
        if takeover:
            self.takeovers.append(
                (self.sim.now, client.name, server.name, record.offset)
            )
            if adopting_orphan:
                self._check_takeover_offset(record, client, track)
        track.down_offset = None
        track.max_offset = max(track.max_offset, record.offset)

    def on_session_end(self, server: Any, client: Any, departed: bool) -> None:
        """Present for completeness; sampling covers the aftermath."""

    def _check_takeover_offset(
        self, record: Any, client: Any, track: _ClientTrack
    ) -> None:
        # The downed server's own record is the authoritative position:
        # the adopter resumes from state at most one sync interval
        # staler, so the adopted offset must sit within the staleness
        # bound of it.  Nothing streams the client between the crash and
        # the adoption, so the baseline cannot move in the meantime.
        base = track.down_offset
        if base is None or base <= 0:
            return  # no shared history yet: nothing to compare against
        if record.offset < base - self.offset_bound_frames:
            self._violation(
                "takeover-offset-regression",
                client.name,
                f"resumed at {record.offset}, downed server was at {base} "
                f"(bound {self.offset_bound_frames} frames)",
            )
        elif record.offset > base + self.offset_bound_frames:
            self._violation(
                "takeover-offset-skip",
                client.name,
                f"resumed at {record.offset}, downed server was at {base} "
                f"(bound {self.offset_bound_frames} frames)",
            )

    # ------------------------------------------------------------------
    # GCS view observer (diagnostics context)
    # ------------------------------------------------------------------
    def _on_view_installed(self, daemon_id: int, group: str, view: Any) -> None:
        self.view_log.append((self.sim.now, daemon_id, group, len(view.members)))
        if len(self.view_log) > 500:
            del self.view_log[:-250]

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------
    def _track(self, name: str) -> _ClientTrack:
        track = self._tracks.get(name)
        if track is None:
            track = self._tracks[name] = _ClientTrack()
        return track

    def _client_by_process(self, process: Any) -> Optional[Any]:
        for client in self.deployment.clients.values():
            if client.process == process:
                return client
        return None

    def _servers_serving(self, client: Any) -> List[Any]:
        return [
            server
            for server in self.deployment.live_servers()
            if client.process in server.sessions
        ]

    def _replica_reachable(self, client: Any) -> bool:
        title = client.movie_title
        for server in self.deployment.live_servers():
            if title in server.movies and self.network.reachable(
                client.node_id, server.node_id
            ):
                return True
        return False

    def _sample(self) -> None:
        self.samples += 1
        for client in list(self.deployment.clients.values()):
            self._sample_client(client)
        self._check_bounded_flush()

    def _sample_client(self, client: Any) -> None:
        track = self._track(client.name)
        # A closed video socket means the viewer tore itself down
        # (stopped/abandoned) — it departed on purpose, it is not an
        # orphan the service failed to re-adopt.
        if (
            client.movie_title is None
            or client.finished
            or client.video_socket.closed
        ):
            track.prev_sampled = False
            track.zero_serving_since = None
            track.double_serving_since = None
            track.awaiting_adoption_since = None
            track.down_offset = None
            return

        now = self.sim.now
        serving = self._servers_serving(client)
        self._check_adoption(client, track, serving, now)
        self._refresh_max_offset(client, track)

        stats = client.decoder.stats
        epoch_stable = track.prev_sampled and track.prev_epoch == client.epoch
        if epoch_stable:
            delta_displayed = stats.displayed - track.prev_displayed
            delta_index = stats.last_displayed_index - track.prev_index
            if delta_displayed > 0 and delta_index < delta_displayed:
                self._violation(
                    "double-delivery",
                    client.name,
                    f"displayed {delta_displayed} frames but the playhead "
                    f"advanced only {delta_index} indices "
                    f"(to {stats.last_displayed_index})",
                )
            self._check_underrun(client, track, stats, delta_displayed)
        if stats.stall_events != len(stats.stall_starts):
            self._violation(
                "glitch-bookkeeping",
                client.name,
                f"{stats.stall_events} stall events but "
                f"{len(stats.stall_starts)} recorded stall starts",
            )

        track.prev_displayed = stats.displayed
        track.prev_index = stats.last_displayed_index
        track.prev_stall_events = stats.stall_events
        track.prev_epoch = client.epoch
        track.prev_dry = client.combined_occupancy == 0
        track.prev_sampled = True

    def _check_adoption(
        self, client: Any, track: _ClientTrack, serving: List[Any], now: float
    ) -> None:
        count = len(serving)
        if count == 0 and self._replica_reachable(client):
            if track.zero_serving_since is None:
                track.zero_serving_since = now
            elif (
                not track.zero_reported
                and now - track.zero_serving_since > ORPHAN_GRACE_S
            ):
                track.zero_reported = True
                self._violation(
                    "orphaned-client",
                    client.name,
                    f"no live server has served the client for "
                    f"{now - track.zero_serving_since:.2f}s although a "
                    f"replica of {client.movie_title!r} is reachable",
                )
        else:
            track.zero_serving_since = None
            track.zero_reported = False
        if count >= 2:
            if track.double_serving_since is None:
                track.double_serving_since = now
            elif (
                not track.double_reported
                and now - track.double_serving_since > DOUBLE_SERVE_GRACE_S
            ):
                track.double_reported = True
                names = sorted(server.name for server in serving)
                self._violation(
                    "multiple-adoption",
                    client.name,
                    f"served by {count} replicas {names} for "
                    f"{now - track.double_serving_since:.2f}s",
                )
        else:
            track.double_serving_since = None
            track.double_reported = False

    def _refresh_max_offset(self, client: Any, track: _ClientTrack) -> None:
        for server in self.deployment.live_servers():
            replica = server.movies.get(client.movie_title)
            record = replica.state.record_of(client.process) if replica else None
            if record is not None and record.offset > track.max_offset:
                track.max_offset = record.offset

    def _check_underrun(
        self, client: Any, track: _ClientTrack, stats: Any, delta_displayed: int
    ) -> None:
        """Rule 4: a dry spell must carry an open, recorded stall.

        Only clear-cut windows are judged: plain playback (speed 1, full
        quality, hardware decode), both this and the previous sample dry
        with nothing displayed in between — by then the decoder tick has
        certainly run on an empty pipeline, so a stall must be open.
        """
        plain_playback = (
            client.playback_started
            and not client.paused
            and not client.eos_received
            and client.playback_speed == 1.0
            and client.quality_fps is None
            and client.config.max_decode_fps is None
        )
        dry = client.combined_occupancy == 0
        if (
            plain_playback
            and dry
            and track.prev_dry
            and delta_displayed == 0
            and not client.decoder.is_stalled
        ):
            self._violation(
                "underrun-without-glitch",
                client.name,
                "playback ran dry across a full sample window but no "
                "stall is recorded",
            )

    def _check_bounded_flush(self) -> None:
        """Rule 5: no unexplained flush outlives ``FLUSH_BOUND_S``.

        The clock is the checker's own (first sample that saw the member
        flushing) and restarts whenever the member installs a view or its
        daemon suspects someone in the installed view — a crash or a
        partition explains a long flush, and the failure detector ends it.
        """
        now = self.sim.now
        domain = self.deployment.domain
        flushing: Dict[Tuple[int, str], Tuple[float, int, bool]] = {}
        for daemon in domain.daemon_nodes():
            endpoint = domain.endpoint(daemon)
            for member in endpoint.group_members():
                if member.state != MemberState.FLUSHING:
                    continue
                suspected = endpoint.suspected_daemons()
                if any(p.node in suspected for p in member.view.members):
                    continue
                key = (daemon, member.group)
                since, installed, reported = self._flushing.get(
                    key, (now, member.installed_views, False)
                )
                if installed != member.installed_views:
                    since, installed, reported = now, member.installed_views, False
                if not reported and now - since > FLUSH_BOUND_S:
                    reported = True
                    proposal = member.proposal
                    silent = sorted(
                        str(process)
                        for process in proposal.members
                        if process not in proposal.vectors
                    )
                    self._violation(
                        "unbounded-flush",
                        None,
                        f"daemon {daemon} has been flushing {member.group!r} "
                        f"for {now - since:.2f}s (bound {FLUSH_BOUND_S:.1f}s) "
                        f"with nobody in its view suspected; proposal "
                        f"{proposal.view_id} has no flush vector from {silent}",
                    )
                flushing[key] = (since, installed, reported)
        self._flushing = flushing

    # ------------------------------------------------------------------
    # End-of-run check
    # ------------------------------------------------------------------
    def final_check(self) -> List[Violation]:
        """Run the settle-time assertions; returns all violations."""
        for client in self.deployment.clients.values():
            if (
                client.movie_title is None
                or client.finished
                or client.video_socket.closed
            ):
                continue
            track = self._track(client.name)
            serving = self._servers_serving(client)
            if track.awaiting_adoption_since is not None and not serving:
                self._violation(
                    "client-never-readopted",
                    client.name,
                    f"its server went down at "
                    f"t={track.awaiting_adoption_since:.2f}s and no "
                    f"survivor adopted the client",
                )
            elif len(serving) != 1 and self._replica_reachable(client):
                names = sorted(server.name for server in serving)
                self._violation(
                    "final-adoption-count",
                    client.name,
                    f"served by {len(serving)} replicas {names} at the end "
                    f"of the run (expected exactly 1)",
                )
            stats = client.decoder.stats
            if stats.stall_events != len(stats.stall_starts):
                self._violation(
                    "glitch-bookkeeping",
                    client.name,
                    f"{stats.stall_events} stall events but "
                    f"{len(stats.stall_starts)} recorded stall starts",
                )
        return self.violations
