"""The old import path of ``_callback_name``, the name ``sim.fire`` and
``sim.cancel`` report a callback as.

Its home is :mod:`repro.sim.core`; ``bench/test_bench.py`` still imports
it from here.  This module goes once that test imports it from
:mod:`repro.sim.core`.
"""

from repro.sim.core import _callback_name

__all__ = ["_callback_name"]
