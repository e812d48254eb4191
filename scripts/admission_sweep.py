"""Every viewer served, none twice: the admission path over a seed sweep.

``PYTHONPATH=src python3 scripts/admission_sweep.py``

Builds one scale rig (``repro.experiments.scale.build_scale_rig``) per
cell, the cells spread over ``os.cpu_count()`` worker processes, and
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
  rows two cohorts list).  Not at 3 s: with the window at 0 the connect
  flood has started only about two thirds of the rows by then.

Exits 1 if any clean or flyweight rig breaks its rule.  Tier-1 pins one seed; a
placement rule that depends on which replica drained its admission
queue first fails here at some other seed.  A lossy rig that breaks its
rule is marked ``LOSSY`` and does not set the exit code: at 2 % the
replicas' ledgers drift apart and livelock admission, which only first
placement from the agreed view fixes; once it does, lossy cells fail
like clean ones.

Every rig is independent and seeded, so the output is byte-identical
to running the cells one at a time.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Dict, Tuple

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


def served_counts(deployment) -> Dict[object, int]:
    """client -> how many live servers stream it."""
    counts: Dict[object, int] = {}
    for server in deployment.live_servers():
        for client in server.sessions:
            counts[client] = counts.get(client, 0) + 1
    return counts


def listed_counts(deployment) -> Dict[object, int]:
    """row client -> how many live cohorts list it."""
    counts: Dict[object, int] = {}
    for server in deployment.live_servers():
        for replica in server.movies.values():
            if replica.cohort is not None:
                for client in replica.cohort.clients():
                    counts[client] = counts.get(client, 0) + 1
    return counts


def run_fly_rig(n_clients: int, window_s: float, seed: int) -> Tuple[int, int]:
    """(rows listed, rows listed twice) at :data:`FLY_CHECK_S`."""
    sim, deployment, _, _ = build_scale_rig(
        n_clients, 1.0, n_servers=N_SERVERS, mode="flyweight", seed=seed,
        connect_window_s=window_s,
    )
    sim.run_until(FLY_CHECK_S)
    counts = listed_counts(deployment)
    return len(counts), sum(1 for n in counts.values() if n > 1)


def run_rig(
    n_clients: int, window_s: float, seed: int, loss: float = 0.0
) -> Tuple[int, int]:
    """(viewers served, viewers served twice) at the cell's checks."""
    sim, deployment, _, _ = build_scale_rig(
        n_clients, 1.0, n_servers=N_SERVERS, mode="full", seed=seed,
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
    """(loss, N, window, seed) for every rig, clean cells first and the
    flyweight cells (loss ``"fly"``) last."""
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


def run_cell(cell) -> Tuple[int, int]:
    loss, n_clients, window_s, seed = cell
    if loss == "fly":
        return run_fly_rig(n_clients, window_s, seed)
    return run_rig(n_clients, window_s, seed, loss)


def main() -> int:
    failed = lossy = fly_failed = 0
    print(f"{'loss':>5} {'N':>5} {'window':>6} {'seed':>4} "
          f"{'served':>6} {'twice':>5}", flush=True)
    grid = list(cells())
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        results = pool.imap(run_cell, grid)
        for (loss, n_clients, window_s, seed), (served, twice) in zip(
            grid, results
        ):
            bad = served < n_clients or twice > 0
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
