"""Refactor oracle for the server's placement protocol.

``tests/data/server_oracle.json`` pins, per rig, two things apart:
``behaviour`` — a sha256 over who served whom and when: every session
start (server, offset, takeover), the final playheads, the failover
latencies and the ``on_session_end`` sequence — and ``events``, the
number of simulated events.  A change that only removes work (fewer
packets, same service) moves ``events`` and nothing else; ``served``
(viewers with at least one session start) and ``failover`` (sha256 of
the latency list alone) say which part of ``behaviour`` held when it
does move.  Each rig crashes its most-loaded server
at 3 s (failure regime) and starts a new server on the same host at
5.5 s (join regime) — the committed goldens never reach the cohort's
join regime.  Two rows also pin the ordered ``server.*`` / ``span.*`` /
``placement.*`` bus events, field for field.  Every rig runs three
servers, so ``served`` proves served-once at S = 3 only: with more
servers one early crash loses flyweight rows (DESIGN §8.5;
``test_early_crash_rows.py``).

The digests were recorded before ``repro.server`` was split into
``MovieReplica`` + ``VoDServer``; a restructuring of that package is
correct exactly when this file passes unedited.  The rig only touches
public surface (``build_scale_rig``, ``Deployment.busiest_server``,
``Deployment.add_server``, ``FlyweightPool.positions``,
``VoDServer.sessions``) so it runs on either side of such a change.

Re-recorded once since, when open-group sends became group-addressed and
a joiner leaving mid-flush stopped wedging its group (the split above
was recorded on the unchanged source first, so the diff of the JSON says
what moved): the 13 default-window flyweight rows moved in ``events``
only; the ten ``full-n60-w2.0`` rows in one viewer's final playhead
(``vod.session.client46`` used to stay wedged from the 5.5 s restart on,
so its flow control never reached the server); the ten
``flyweight-n600-w0.0`` rows in ``behaviour`` — 600 connects x 6 copies at
one instant used to overflow the concentrator uplink queues (3 100
tail drops, 256 viewers admitted one retry later in a second batch), and
x 3 copies fit, so all 600 are admitted in one sorted batch.  ``served``
and ``failover`` are unchanged in all 43 rows.

Re-recorded again when the batched transmission path was deleted and
every full viewer came to stream frame by frame (the reference model; a
burst precomputed against the shared core -> edge transmitter let a
second stream's frames arrive microseconds early).  The 20 ``full-n60``
rows moved in ``events`` (about 44 000 -> 76 000: one timer event per
frame again); ``full-n60-w2.0-s2`` also in ``behaviour`` (``client51``'s
takeover offset 39 -> 38 and its final playhead 243 -> 242) and
``full-n60-w2.0-s1`` also in ``bus`` (seven ``server.rate`` events
shifted by at most 92 µs).  ``served`` and ``failover`` held in every
row, and no flyweight row moved.

Regenerating (only after deliberately changing placement behaviour):

    PYTHONPATH=src python tests/experiments/test_server_oracle.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments.scale import ConformanceTrace, build_scale_rig

ORACLE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "data" / "server_oracle.json"
)

DURATION_S = 9.0
CRASH_AT_S = 3.0
RESTART_AT_S = 5.5
SEEDS = tuple(range(1, 11))

#: (mode, n_viewers, connect_window_s, seed, pin_bus_events)
ROWS = [
    (mode, n, window, seed, seed == SEEDS[0] and window == 2.0)
    for mode, n in (("flyweight", 600), ("full", 60))
    for window in (0.0, 2.0)
    for seed in SEEDS
] + [
    # N = 3000 over the default window: connects land after the settle
    # window in replica-divergent order, so the stale-assignment repair
    # on connect retries runs.
    ("flyweight", 3000, 2.0, seed, False)
    for seed in (1, 3, 4)
]


def row_id(row) -> str:
    mode, n, window, seed, _ = row
    return f"{mode}-n{n}-w{window}-s{seed}"


class _EndLog:
    def __init__(self) -> None:
        self.ends = []

    def on_session_end(self, server, client, departed) -> None:
        self.ends.append((server.name, client.name, bool(departed)))


def _sha(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=repr).encode()
    ).hexdigest()


def run_row(row) -> dict:
    mode, n, window, seed, pin_bus = row
    sim, deployment, viewers, observer = build_scale_rig(
        n, n_servers=3, seed=seed, mode=mode, connect_window_s=window,
    )
    trace = ConformanceTrace()
    ends = _EndLog()
    deployment.add_server_observer(trace)
    deployment.add_server_observer(ends)
    bus = None
    if pin_bus:
        bus, _ = sim.telemetry.collect(
            prefixes=("server.", "span.", "placement.")
        )
    # A plain event: an injected fault would be a causal root, and the
    # bus digests were recorded without one.
    sim.call_at(CRASH_AT_S, lambda: deployment.busiest_server().crash())

    def restart_on_crashed_host() -> None:
        (victim,) = [s for s in deployment.servers.values() if not s.running]
        deployment.add_server(deployment.topology.hosts.index(victim.node_id))

    sim.call_at(RESTART_AT_S, restart_on_crashed_host)
    events = sim.run_until(DURATION_S)

    if mode == "flyweight":
        final = viewers.positions()
    else:
        final = {
            client.name: int(session.position)
            for server in deployment.live_servers()
            for client, session in server.sessions.items()
        }
    failover = [repr(x) for x in observer.latencies]
    out = {
        "behaviour": _sha({
            "starts": trace.starts,
            "final": final,
            "failover": failover,
            "ends": ends.ends,
        }),
        "events": events,
        "served": len(trace.starts),
        "failover": _sha(failover),
    }
    if bus is not None:
        out["bus"] = _sha([
            (repr(event.time), event.kind, sorted(event.fields.items()))
            for event in bus
        ])
        out["bus_events"] = len(bus)
    return out


@pytest.fixture(scope="module")
def oracle():
    with open(ORACLE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_row_matches_the_recorded_digest(oracle, row):
    assert run_row(row) == oracle[row_id(row)]


def test_oracle_covers_exactly_the_rows(oracle):
    assert sorted(oracle) == sorted(row_id(row) for row in ROWS)
    assert sum("bus" in entry for entry in oracle.values()) == 2


if __name__ == "__main__":
    recorded = {row_id(row): run_row(row) for row in ROWS}
    with open(ORACLE_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} rows to {ORACLE_PATH}")
