"""MPEG-like media model.

The paper stores and ships real MPEG-1 movies; the evaluation, however,
depends only on the *structure* of the stream — frame types (I frames
are full images, P/B frames incremental), frame sizes, and the frame
rate.  This package models exactly that structure: synthetic movies with
a configurable GOP pattern calibrated to the paper's 1.4 Mbps / 30 fps
stream, a replicated movie catalog, and a hardware-decoder model with a
byte-capacity input buffer (the Optibase card's 240 KB).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".catalog": ("MovieCatalog",),
    ".decoder": ("DecoderStats", "HardwareDecoder"),
    ".frames": ("Frame", "FrameType", "GopPattern"),
    ".movie": ("Movie",),
})
