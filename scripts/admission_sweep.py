"""Every viewer served, none twice: the admission path over a seed sweep.

``PYTHONPATH=src python3 scripts/admission_sweep.py``

Builds one fault-free full-mode scale rig
(``repro.experiments.scale.build_scale_rig``) per size × connect window
× seed — N ∈ {60, 400}, window ∈ {0, 2 s}, seeds 1–30, one rig at a
time — and prints per rig the distinct viewers some live server streams
at 3 s and the viewers two servers stream at 12 s.  Exits 1 if any rig
leaves a viewer unserved at 3 s or served twice at 12 s.  Tier-1 pins
one seed; a placement rule that depends on which replica drained its
admission queue first fails here at some other seed.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

from repro.experiments.scale import build_scale_rig

SIZES = (60, 400)
WINDOWS_S = (0.0, 2.0)
SEEDS = range(1, 31)
SERVED_AT_S = 3.0
DUPLICATES_AT_S = 12.0


def served_counts(deployment) -> Dict[object, int]:
    """client -> how many live servers stream it."""
    counts: Dict[object, int] = {}
    for server in deployment.live_servers():
        for client in server.sessions:
            counts[client] = counts.get(client, 0) + 1
    return counts


def run_rig(n_clients: int, window_s: float, seed: int) -> Tuple[int, int]:
    """(viewers served at 3 s, viewers served twice at 12 s)."""
    sim, deployment, _, _ = build_scale_rig(
        n_clients, 1.0, mode="full", seed=seed, connect_window_s=window_s
    )
    sim.run_until(SERVED_AT_S)
    served = len(served_counts(deployment))
    sim.run_until(DUPLICATES_AT_S)
    twice = sum(1 for n in served_counts(deployment).values() if n > 1)
    return served, twice


def main() -> int:
    failed = 0
    print(f"{'N':>5} {'window':>6} {'seed':>4} {'served@3s':>9} {'twice@12s':>9}")
    for n_clients in SIZES:
        for window_s in WINDOWS_S:
            for seed in SEEDS:
                served, twice = run_rig(n_clients, window_s, seed)
                bad = served < n_clients or twice > 0
                failed += bad
                print(f"{n_clients:5d} {window_s:6.1f} {seed:4d} "
                      f"{served:9d} {twice:9d}{'  FAIL' if bad else ''}",
                      flush=True)
    if failed:
        print(f"{failed} rig(s) left a viewer unserved or served twice")
        return 1
    print("every viewer served by 3 s, none twice at 12 s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
