"""Comparison baselines for the fault-tolerance evaluation.

* :mod:`repro.baselines.single_server` — a conventional single-server
  VoD deployment (replication degree 1): any server failure kills the
  stream.  The trivial lower bound.
* :mod:`repro.baselines.striped` — a Tiger-like striped video cluster
  (Bolosky et al., the only prior system the paper credits with
  server-failure tolerance): movies striped over tightly coupled
  servers with declustered mirroring.  Tolerates exactly one failure;
  the paper's group-communication service tolerates k-1 of k replicas.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".mini_client": ("MiniClient",),
    ".single_server": ("run_single_server_crash",),
    ".striped": ("StripedCluster", "run_striped_crash"),
})
