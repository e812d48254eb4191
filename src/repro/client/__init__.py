"""The VoD client.

Mirrors the paper's client (Section 3-4): a software reorder buffer in
front of a hardware decoder buffer, the water-mark flow-control policy
of Figure 2 with two-tier emergency requests, full VCR control, and the
statistics the evaluation section plots.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".buffers": ("InsertOutcome", "SoftwareBuffer"),
    ".flow_control": ("FlowControlPolicy",),
    ".player": ("ClientConfig", "ClientStats", "VoDClient"),
})
