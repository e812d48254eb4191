"""Layer-boundary tracing from outside the program.

Nothing under ``src/`` knows about this module.  :meth:`LayerTracer.install`
replaces — by ``setattr``, restored on :meth:`~LayerTracer.uninstall` —
every function and method defined in the ``repro`` modules with a guard
that opens a *span* only when a call crosses from one layer into
another (a layer is a package under ``src/repro``; see :data:`LAYERS`).
Calls inside a layer pass straight through, so a span's duration is the
time the callee's layer held control, and a layer's *self time* is its
spans' duration minus the part covered by child spans.

Events link the spans into causal chains: ``Simulator.call_at`` and
``Simulator.reschedule`` are additionally patched so the scheduled
callback becomes the *root span* of its event and remembers the span
that scheduled it (its ``cause``).  Every span carries the id of the
root span it ran under (its ``event``), so one simulated event's spans
share an identifier and ``cause`` chains them back through time.

What the wrappers cannot see is attributed to the caller's layer:
dunder methods (constructors included), properties, closures, and
functions another module captured by value before tracing started
(dispatch tables, default arguments).  ``trace.overhead_x`` in the
benchmark output says how much slower the traced run was.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import types
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  Packages under ``repro`` that are not
#: named here (experiments, faulting, placement, workloads, ...) and the
#: top-level ``repro.*`` modules fold into ``other``.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "gcs", "server", "client",
    "telemetry", "service", "media", "other",
)
_OTHER = LAYERS.index("other")
#: The layer of code that is not part of the program (the harness).
OUTSIDE = -1

#: Raw spans kept for the trace file; later spans only aggregate.
MAX_RAW_SPANS = 20_000


def layer_index(module_name: Optional[str], package: str = "repro") -> int:
    """Layer of a module: ``repro.net.link`` -> index of ``net``."""
    if not module_name:
        return OUTSIDE
    parts = module_name.split(".")
    if parts[0] != package:
        return OUTSIDE
    if len(parts) > 1 and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return _OTHER


class _State:
    """The tracer's hot mutable state (one attribute load per field)."""

    __slots__ = ("layer", "span", "event", "child_ns", "next_id", "pushes")

    def __init__(self) -> None:
        self.layer = OUTSIDE
        self.span = 0  # 0 = no span (harness code)
        self.event = 0
        self.child_ns = 0
        self.next_id = 1
        self.pushes = 0


class LayerTracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self.state = _State()
        #: name -> [calls, total_ns, self_ns], crossing spans only.
        self.functions: Dict[str, List[int]] = {}
        self.layer_self_ns: List[int] = [0] * len(LAYERS)
        self.layer_calls_in: List[int] = [0] * len(LAYERS)
        #: (id, name, start_ns, end_ns, parent, event, cause)
        self.raw_spans: List[Tuple[int, str, int, int, int, int, int]] = []
        #: (owner, attribute, original, replacement) for every patch.
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._wrappers: Dict[types.FunctionType, Callable] = {}
        self._root_names: Dict[Any, Tuple[int, str]] = {}

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------
    def _span_wrapper(
        self, fn: Callable, layer: int, name: str, cell: Optional[list] = None
    ) -> Callable:
        """``fn`` behind the layer guard.

        With ``cell`` (a one-element list holding the scheduling span)
        the wrapper is an event root: it always opens a span, starts a
        new event id and records the cause.
        """
        st = self.state
        stat = self.functions.setdefault(name, [0, 0, 0])
        layer_self = self.layer_self_ns
        layer_calls = self.layer_calls_in
        raw = self.raw_spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            if cell is None:
                if st.layer == layer:
                    return fn(*args, **kwargs)
                cause = 0
                event = st.event
            else:
                cause = cell[0]
                event = st.next_id
            prev_layer = st.layer
            parent = st.span
            prev_event = st.event
            saved_child = st.child_ns
            span_id = st.next_id
            st.next_id = span_id + 1
            st.layer = layer
            st.span = span_id
            st.event = event
            st.child_ns = 0
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                duration = ended - started
                self_ns = duration - st.child_ns
                st.child_ns = saved_child + duration
                st.layer = prev_layer
                st.span = parent
                st.event = prev_event
                stat[0] += 1
                stat[1] += duration
                stat[2] += self_ns
                layer_self[layer] += self_ns
                layer_calls[layer] += 1
                if len(raw) < MAX_RAW_SPANS:
                    raw.append(
                        (span_id, name, started, ended, parent, event, cause)
                    )

        return traced

    def _wrap_function(self, fn: types.FunctionType) -> Callable:
        """The one wrapper for ``fn`` (shared by every name bound to it)."""
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            layer = layer_index(fn.__module__, self.package)
            name = f"{LAYERS[layer]}.{fn.__qualname__}"
            wrapper = self._span_wrapper(fn, layer, name)
            for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
                setattr(wrapper, attr, getattr(fn, attr))
            wrapper.__wrapped__ = fn
            self._wrappers[fn] = wrapper
        return wrapper

    def _root(self, callback: Callable) -> Callable:
        """``callback`` as the root span of the event being scheduled."""
        target = getattr(callback, "__func__", callback)
        cacheable = isinstance(target, types.FunctionType)
        resolved = self._root_names.get(target) if cacheable else None
        if resolved is None:
            inner = getattr(target, "func", target)  # functools.partial
            inner = getattr(inner, "__func__", inner)
            module = getattr(inner, "__module__", None) or type(inner).__module__
            layer = layer_index(module, self.package)
            if layer == OUTSIDE:
                layer = _OTHER  # harness-made callbacks (the crash closure)
            qualname = getattr(inner, "__qualname__", type(inner).__name__)
            resolved = (layer, f"{LAYERS[layer]}.{qualname}")
            if cacheable:
                self._root_names[target] = resolved
        layer, name = resolved
        cell = [self.state.span]
        root = self._span_wrapper(callback, layer, name, cell)
        root.cell = cell
        # Telemetry names events by the callback's __qualname__ (falling
        # back to its repr); keep both exactly as the original's.
        shown = getattr(callback, "__qualname__", None)
        root.__qualname__ = shown if shown is not None else repr(callback)
        return root

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def _wrap_class(self, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, value, self._wrap_function(value))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if isinstance(inner, types.FunctionType):
                    rewrapped = type(value)(self._wrap_function(inner))
                    self._patch(cls, attr, value, rewrapped)

    def install(self, modules: Optional[List[types.ModuleType]] = None) -> None:
        """Wrap every function and method of the package's modules.

        ``modules`` defaults to every module of the package, imported
        here so that nothing is defined after the wrappers go in.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        if modules is None:
            root = importlib.import_module(self.package)
            for info in pkgutil.walk_packages(root.__path__, f"{self.package}."):
                importlib.import_module(info.name)
            modules = [
                module
                for name, module in sorted(sys.modules.items())
                if name == self.package or name.startswith(f"{self.package}.")
            ]
        owned = {module.__name__ for module in modules}
        seen_classes = set()  # a class may be bound to several names
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    # Re-exports and ``from x import f`` bind the same
                    # function in several namespaces: patch each one.
                    if value.__module__ in owned:
                        self._patch(module, attr, value, self._wrap_function(value))
                elif (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and value not in seen_classes
                ):
                    seen_classes.add(value)
                    self._wrap_class(value)
        self._install_scheduling_hooks()

    def _install_scheduling_hooks(self) -> None:
        """Make scheduled callbacks event roots that remember their cause."""
        try:
            simulator = sys.modules[f"{self.package}.sim.core"].Simulator
        except (KeyError, AttributeError):
            return  # a toy package without a kernel (the unit tests)
        st = self.state
        make_root = self._root
        inner_call_at = vars(simulator)["call_at"]
        inner_reschedule = vars(simulator)["reschedule"]

        def call_at(sim: Any, time: float, callback: Callable, *args: Any) -> Any:
            st.pushes += 1
            return inner_call_at(sim, time, make_root(callback), *args)

        def reschedule(sim: Any, handle: Any, time: float) -> Any:
            st.pushes += 1
            cell = getattr(handle.callback, "cell", None)
            if cell is None:
                handle.callback = make_root(handle.callback)
            else:
                cell[0] = st.span
            return inner_reschedule(sim, handle, time)

        self._patch(simulator, "call_at", inner_call_at, call_at)
        self._patch(simulator, "reschedule", inner_reschedule, reschedule)

    def uninstall(self) -> List[str]:
        """Restore every patched attribute; returns what could not be.

        Patches unwind in reverse so stacked patches (the scheduling
        hooks sit on top of the generic wrappers) restore the original.
        An entry in the returned list means a wrapper is still live —
        the benchmark treats that as a failed correctness check.
        """
        leaked: List[str] = []
        for owner, attr, original, replacement in reversed(self._patches):
            if vars(owner).get(attr) is replacement:
                setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                leaked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        self._wrappers.clear()
        return leaked

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-layer and per-function aggregates (JSON-ready)."""
        return {
            "layers": {
                name: {
                    "self_ns": self.layer_self_ns[i],
                    "calls_in": self.layer_calls_in[i],
                }
                for i, name in enumerate(LAYERS)
            },
            "functions": {
                name: {"calls": s[0], "total_ns": s[1], "self_ns": s[2]}
                for name, s in sorted(self.functions.items())
                if s[0]
            },
            "spans_total": self.state.next_id - 1,
            "heap_pushes": self.state.pushes,
        }

    def write(self, path: str, **extra: Any) -> None:
        """Write aggregates and the first raw spans to ``path``."""
        document = dict(extra)
        document.update(self.summary())
        document["span_fields"] = [
            "id", "name", "start_ns", "end_ns", "parent", "event", "cause",
        ]
        document["spans"] = self.raw_spans
        with open(path, "w") as handle:
            json.dump(document, handle)
