"""Online replica migration over the live service.

The rebalancer moves replicas between running servers **through the
service's own fault-tolerance machinery** rather than beside it: a
migration is "target joins the movie group" (the paper's join-regime
redistribution sheds viewers onto it) followed, once the view has
settled, by "source leaves the movie group" (failure-regime adoption of
the source's remaining viewers, minus the crash-detection latency).
Because both halves are ordinary membership changes, every invariant
the :class:`~repro.faulting.invariants.InvariantChecker` enforces for
crashes — exactly-one adoption, offset continuity, no double delivery —
holds for migrations by construction, and a target that dies mid-copy
simply aborts the drop: the source never stopped serving.

Telemetry: each migration opens a ``placement.migrate`` span (key
``"<title>:<source>-><target>"``) and emits
``placement.migration.start`` / ``.complete`` / ``.abort`` events;
completed durations land in the ``placement.migrate.latency_s``
histogram, so QoE/SLO gates and ``repro-vod trace`` see migrations the
same way they see takeovers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.deployment import Deployment


class Rebalancer:
    """Copy-then-drop replica migrations on a live :class:`Deployment`."""

    def __init__(
        self, deployment: "Deployment", settle_s: Optional[float] = None
    ) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        sync = deployment.server_config.sync_interval_s
        # Long enough for the join view to commit, the join-regime
        # redistribution to run, and the assignment settle window
        # (2 sync periods) to expire before the source leaves.
        self.settle_s = settle_s if settle_s is not None else 6.0 * sync
        self.completed: List[Tuple[str, str, str]] = []
        self.aborted: List[Tuple[str, str, str]] = []
        self._active = 0

    @property
    def active(self) -> int:
        """Migrations currently between copy and drop."""
        return self._active

    # ------------------------------------------------------------------
    # One migration
    # ------------------------------------------------------------------
    def migrate(
        self,
        title: str,
        source: str,
        target: str,
        prefix_s: Optional[float] = None,
    ) -> None:
        """Move the ``title`` replica from ``source`` to ``target``.

        The target starts serving immediately (join regime); the source
        drops its copy after :attr:`settle_s`.  If the target is no
        longer running at drop time the migration aborts and the source
        keeps the replica — a mid-migration crash can lose the *copy*,
        never the *title*.  ``prefix_s`` migrates onto a prefix-only
        target (edge cache warm-up)."""
        src = self.deployment.server(source)
        dst = self.deployment.server(target)
        if not src.running:
            raise ServiceError(f"migration source {source!r} is not running")
        if not dst.running:
            raise ServiceError(f"migration target {target!r} is not running")
        if title not in src.movies:
            raise ServiceError(f"{source!r} holds no replica of {title!r}")

        key = f"{title}:{source}->{target}"
        tel = self.sim.telemetry
        cause = None
        if tel.active:
            cause = tel.cause
            if cause is None:
                cause = tel.new_cause(f"migration.{key}")
            tel.span(
                "placement.migrate", key=key,
                movie=title, source=source, target=target, cause=cause,
            )
            tel.emit(
                "placement.migration.start",
                movie=title, source=source, target=target, cause=cause,
            )
        self._active += 1
        dst.add_movie(title, prefix_s=prefix_s)
        self.sim.call_after(
            self.settle_s,
            lambda: self._finish(title, source, target, key, cause),
        )

    def _finish(
        self, title: str, source: str, target: str, key: str, cause: Optional[str]
    ) -> None:
        self._active -= 1
        src = self.deployment.server(source)
        dst = self.deployment.server(target)
        tel = self.sim.telemetry
        if not dst.running or title not in dst.movies:
            # The target died (or dropped the copy) mid-migration: keep
            # the source replica and call the move off.
            self.aborted.append((title, source, target))
            if tel.active:
                span = tel.open_span("placement.migrate", key=key)
                if span is not None:
                    span.end(outcome="aborted")
                fields = dict(movie=title, source=source, target=target)
                if cause is not None:
                    fields["cause"] = cause
                tel.emit("placement.migration.abort", **fields)
            return
        if src.running and title in src.movies:
            src.drop_movie(title)
        else:
            # The source crashed first: its viewers already failed over
            # (possibly onto the target we just warmed) — the migration
            # degenerates to a replica repair and still completes.
            self.deployment.catalog.remove_replica(title, source)
        self.completed.append((title, source, target))
        if tel.active:
            span = tel.open_span("placement.migrate", key=key)
            if span is not None:
                duration = span.end(outcome="completed")
                if duration is not None:
                    tel.metrics.histogram(
                        "placement.migrate.latency_s"
                    ).observe(duration)
            fields = dict(movie=title, source=source, target=target)
            if cause is not None:
                fields["cause"] = cause
            tel.emit("placement.migration.complete", **fields)

    # ------------------------------------------------------------------
    # Replication repair
    # ------------------------------------------------------------------
    def heal(self, k: Optional[int] = None) -> List[Tuple[str, str]]:
        """Restore every title to >= k **full** replicas on live servers.

        After a (correlated) crash some titles are under-replicated or
        dark; this re-creates copies on the least storage-loaded live
        servers via :meth:`VoDServer.add_movie` — the "new movies can be
        added on the fly" path.  Returns the ``(title, server)`` pairs
        added.  ``k`` defaults to the deployment's placement plan floor.
        """
        if k is None:
            plan = getattr(self.deployment, "placement", None)
            k = plan.k if plan is not None else 1
        catalog = self.deployment.catalog
        live = {
            server.name: server for server in self.deployment.live_servers()
        }
        if not live:
            return []
        load: Dict[str, float] = {
            name: sum(
                catalog.movie(t).duration_s for t in catalog.movies_of(name)
            )
            for name in live
        }
        tel = self.sim.telemetry
        additions: List[Tuple[str, str]] = []
        for title in catalog.titles():
            holders = {
                holder
                for holder in catalog.full_replicas(title)
                if holder in live
            }
            candidates = sorted(
                (name for name in live if name not in holders),
                key=lambda name: (load[name], name),
            )
            for name in candidates[: max(0, k - len(holders))]:
                live[name].add_movie(title)
                load[name] += catalog.movie(title).duration_s
                additions.append((title, name))
                if tel.active:
                    tel.emit(
                        "placement.heal", movie=title, server=name,
                        replicas=len(holders) + 1, target_k=k,
                    )
        return additions
