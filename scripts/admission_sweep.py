"""Every viewer served, none twice: the admission path over a seed sweep.

``PYTHONPATH=src python3 scripts/admission_sweep.py``

Builds one scale rig (``repro.experiments.scale.build_scale_rig``) per
cell, the cells spread over one spawned worker process per core
(``repro.experiments.matrix.map_tasks``), and
prints per rig, in cell order, the distinct viewers some live server
streams by a deadline and the viewers two servers stream some time
later:

* clean links — N ∈ {60, 400} × connect window {0, 2 s} × seeds 1–30;
  every viewer served at 3 s, none twice at 12 s;
* a lossy last mile — the scenario matrix's ``lossy-lastmile`` fault
  (``LinkFault(drop_prob, extra_delay_s=0.005)``) on every edge host
  from t = 0 at 0.5 % and 2 % drop, N ∈ {60, 400}, the rig's 2 s
  window, seeds 1–10; every viewer served at 12 s, none twice at 24 s
  (lost datagrams cost retries, so 3 s would flag plain loss);
* flyweight rows — N = 2 000 × connect window {0, 2 s} × seeds 1–10 on
  clean links; at 12 s every row is listed by exactly one live cohort
  (``fly`` in the loss column; served = rows some cohort lists, twice =
  rows two cohorts list, both from ``FlyweightPool.listing``, the count
  the flyweight scale point reports).  Not at 3 s: with the window at 0 the connect
  flood has started only about two thirds of the rows by then;
* early crashes — flyweight N = 20 000 (the size of the early-crash
  strict xfails), the rig's 2 s window, S ∈ {3, 4, 6} servers × the
  busiest server crashed at {none, 4 s, 8 s}
  (``FaultPlan.crash_most_loaded``) × seeds 1–10; every row listed by
  exactly one live cohort at 20 s (``S=`` and ``crash`` close the line).

Exits 1 if any clean or N = 2 000 flyweight rig breaks its rule.
Tier-1 pins one seed; a placement rule that depends on which replica
drained its admission queue first fails here at some other seed.  A lossy rig that breaks its
rule is marked ``LOSSY`` and does not set the exit code: at 2 % the
replicas' ledgers drift apart and livelock admission, which only first
placement from the agreed view fixes; once it does, lossy cells fail
like clean ones.  An early-crash rig that breaks its rule is marked
``EARLYCRASH`` and does not set the exit code either: one crash at
S ≥ 4 loses rows until the owner is computed from the agreed view.

Every rig is independent and seeded, so the output is byte-identical
to running the cells one at a time.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Tuple

from repro.experiments.matrix import map_tasks
from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.net.link import LinkFault

SIZES = (60, 400)
WINDOWS_S = (0.0, 2.0)
SEEDS = range(1, 31)
LOSSES = (0.005, 0.02)
LOSSY_WINDOW_S = 2.0
LOSSY_SEEDS = range(1, 11)
N_SERVERS = 3
#: (served at, duplicates at), simulated seconds.
CLEAN_CHECKS_S = (3.0, 12.0)
LOSSY_CHECKS_S = (12.0, 24.0)
FLY_SIZE = 2000
FLY_SEEDS = range(1, 11)
FLY_CHECK_S = 12.0
EARLY_SIZE = 20_000
EARLY_WINDOW_S = 2.0
EARLY_SERVERS = (3, 4, 6)
EARLY_CRASHES_S = (None, 4.0, 8.0)
EARLY_SEEDS = range(1, 11)
EARLY_CHECK_S = 20.0


def served_counts(deployment) -> Dict[object, int]:
    """client -> how many live servers stream it."""
    counts: Dict[object, int] = {}
    for server in deployment.live_servers():
        for client in server.sessions:
            counts[client] = counts.get(client, 0) + 1
    return counts


def run_fly_rig(
    n_clients: int, window_s: float, seed: int, n_servers: int = N_SERVERS,
    crash_at: Optional[float] = None, check_s: float = FLY_CHECK_S,
) -> Tuple[int, int]:
    """(rows listed, rows listed twice) at ``check_s``, the busiest of
    ``n_servers`` crashed at ``crash_at`` (None: no crash)."""
    sim, deployment, pool, _ = build_scale_rig(
        n_clients, n_servers=n_servers, mode="flyweight", seed=seed,
        connect_window_s=window_s,
    )
    if crash_at is not None:
        FaultInjector(deployment, FaultPlan().crash_most_loaded(crash_at)).start()
    sim.run_until(check_s)
    unlisted, twice = pool.listing()
    return n_clients - unlisted, twice


def run_rig(
    n_clients: int, window_s: float, seed: int, loss: float = 0.0
) -> Tuple[int, int]:
    """(viewers served, viewers served twice) at the cell's checks."""
    sim, deployment, _, _ = build_scale_rig(
        n_clients, n_servers=N_SERVERS, mode="full", seed=seed,
        connect_window_s=window_s,
    )
    if loss:
        fault = LinkFault(drop_prob=loss, extra_delay_s=0.005)
        plan = FaultPlan()
        for host in range(N_SERVERS, len(deployment.topology.hosts)):
            plan = plan.impair_host(0.0, host=host, fault=fault)
        FaultInjector(deployment, plan).start()
    served_at_s, duplicates_at_s = LOSSY_CHECKS_S if loss else CLEAN_CHECKS_S
    sim.run_until(served_at_s)
    served = len(served_counts(deployment))
    sim.run_until(duplicates_at_s)
    twice = sum(1 for n in served_counts(deployment).values() if n > 1)
    return served, twice


def cells():
    """(loss, N, window, seed) for every rig, clean cells first, then the
    flyweight cells (loss ``"fly"``), then the early-crash cells
    (loss ``"fly"`` plus servers and crash time) last."""
    for n_clients in SIZES:
        for window_s in WINDOWS_S:
            for seed in SEEDS:
                yield 0.0, n_clients, window_s, seed
    for loss in LOSSES:
        for n_clients in SIZES:
            for seed in LOSSY_SEEDS:
                yield loss, n_clients, LOSSY_WINDOW_S, seed
    for window_s in WINDOWS_S:
        for seed in FLY_SEEDS:
            yield "fly", FLY_SIZE, window_s, seed
    for n_servers in EARLY_SERVERS:
        for crash_at in EARLY_CRASHES_S:
            for seed in EARLY_SEEDS:
                yield "fly", EARLY_SIZE, EARLY_WINDOW_S, seed, n_servers, crash_at


def run_cell(cell) -> Tuple[int, int]:
    loss, n_clients, window_s, seed, *early = cell
    if early:
        return run_fly_rig(n_clients, window_s, seed, *early, EARLY_CHECK_S)
    if loss == "fly":
        return run_fly_rig(n_clients, window_s, seed)
    return run_rig(n_clients, window_s, seed, loss)


def main() -> int:
    failed = lossy = fly_failed = early_failed = 0
    print(f"{'loss':>5} {'N':>5} {'window':>6} {'seed':>4} "
          f"{'served':>6} {'twice':>5}", flush=True)
    grid = list(cells())
    for (loss, n_clients, window_s, seed, *early), (served, twice) in zip(
        grid, map_tasks(run_cell, grid)
    ):
        bad = served < n_clients or twice > 0
        if early:
            n_servers, crash_at = early
            early_failed += bad
            crash = "none" if crash_at is None else f"{crash_at:.0f}s"
            print(f"{loss:>5} {n_clients:5d} {window_s:6.1f} {seed:4d} "
                  f"{served:6d} {twice:5d}  S={n_servers} crash={crash}"
                  f"{'  EARLYCRASH' if bad else ''}", flush=True)
            continue
        if loss == "fly":
            fly_failed += bad
            print(f"{loss:>5} {n_clients:5d} {window_s:6.1f} {seed:4d} "
                  f"{served:6d} {twice:5d}{'  FAIL' if bad else ''}",
                  flush=True)
            continue
        if loss:
            lossy += bad
        else:
            failed += bad
        mark = ("  LOSSY" if loss else "  FAIL") if bad else ""
        print(f"{loss:5.3f} {n_clients:5d} {window_s:6.1f} {seed:4d} "
              f"{served:6d} {twice:5d}{mark}", flush=True)
    if lossy:
        print(f"{lossy} lossy rig(s) left a viewer unserved at 12 s or "
              f"served twice at 24 s (reported, not failed)")
    if early_failed:
        print(f"{early_failed} early-crash rig(s) left a row listed by no "
              f"live cohort or by two at 20 s (reported, not failed)")
    if failed:
        print(f"{failed} clean rig(s) left a viewer unserved at 3 s or "
              f"served twice at 12 s")
    if fly_failed:
        print(f"{fly_failed} flyweight rig(s) left a row listed by no live "
              f"cohort or by two at 12 s")
    if failed or fly_failed:
        return 1
    print("clean links: every viewer served by 3 s, none twice at 12 s")
    print("flyweight: every row listed by exactly one live cohort at 12 s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
