"""Per-layer tracing from outside: wrap each layer's public callables.

Nothing under ``src/`` is edited.  :class:`Tracer` replaces every public
function and public method of the layer modules in :data:`LAYERS` with
a wrapper and rebinds the names other ``repro.*`` modules imported with
``from x import f``.  A wrapper opens a span only when the call
*crosses* a layer boundary (caller's layer differs from the callee's),
so a layer's helpers calling each other cost one comparison, and

    self time of a span = its duration - the part its child spans cover.

Self times and call counts are summed for every span; the spans
themselves (id, parent, root API call, layer, name, start, end) are kept
in memory for set-up and the first :data:`SPAN_OPS` timed ops and written
out at exit — enough to follow a command through the layers without the
record-keeping tripling the cost of the ops being attributed.

Every moment of a traced op therefore belongs to exactly one layer; the
benchmark's own code (and the ``repro.apps`` application code it
drives) is the ``harness`` layer, and any ``repro.*`` module the table
does not name is wrapped as ``other`` so that time the table misses
shows up as ``harness.unattributed_share`` instead of vanishing into a
neighbour.

Callbacks cross boundaries backwards (``gcf`` calls the daemon's
request handlers, ``ocl`` calls its completion callbacks); they are
closures no module attribute reaches, so the registration functions in
:data:`CALLBACK_REGISTRARS` wrap them, by the layer of the module that
defined them, on the way in.

The same wrappers carry the sensitivity self-test: with ``inject``
set, the named layer's wrappers busy-wait before each call and nothing
is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> modules, in the order a command travels.  The ISSUE's table
#: plus the modules that would otherwise be ``other`` though they
#: plainly belong: the client's connection/platform objects, the link
#: model under GCF (network, NIC, framing) and the op-cost model the
#: OpenCL runtime charges kernels with.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "api": ("repro.core.client.api", "repro.core.client.stubs"),
    "driver": (
        "repro.core.client.driver",
        "repro.core.client.windows",
        "repro.core.client.resilience",
        "repro.core.client.connection",
        "repro.core.client.platform",
    ),
    "coherence": ("repro.core.coherence.directory", "repro.core.coherence.planner"),
    "wire": ("repro.net.codec", "repro.net.messages", "repro.core.protocol.messages"),
    "gcf": (
        "repro.net.gcf",
        "repro.net.link",
        "repro.net.streams",
        "repro.net.network",
        "repro.net.nic",
        "repro.net.frames",
    ),
    "timeline": ("repro.sim.timeline", "repro.sim.process", "repro.sim.clock"),
    "daemon": (
        "repro.core.daemon.daemon",
        "repro.core.daemon.registry",
        "repro.core.daemon.admission",
        "repro.core.daemon.buildcache",
    ),
    "ocl": (
        "repro.ocl.api",
        "repro.ocl.context",
        "repro.ocl.event",
        "repro.ocl.icd",
        "repro.ocl.kernel",
        "repro.ocl.memory",
        "repro.ocl.platform",
        "repro.ocl.program",
        "repro.ocl.queue",
        "repro.clc.costmodel",
    ),
    "clc_front": (
        "repro.clc.preprocess",
        "repro.clc.lexer",
        "repro.clc.parser",
        "repro.clc.sema",
        "repro.clc.codegen",
        "repro.clc.driver",
    ),
    "clc_exec": ("repro.clc.runtime", "repro.clc.vecrt"),
}

HARNESS = "harness"
OTHER = "other"

#: ``repro.*`` packages that are the load generator, not the system
#: under test: left unwrapped, so their time stays with the harness.
HARNESS_PACKAGES = ("repro.apps", "repro.bench", "repro.testbed", "repro.tools")

#: Error and constant vocabularies every layer shares (``require`` is
#: called on both sides of the wire): unwrapped, so their few
#: nanoseconds stay with the caller instead of opening a span.
SHARED_MODULES = ("repro.ocl.constants", "repro.ocl.errors", "repro.sim.errors", "repro.clc.errors")

#: Timed ops whose spans are kept in full (aggregates cover all ops).
SPAN_OPS = 3

#: (module, qualified name) -> positional indices and keyword names of
#: the arguments that are callbacks into another layer.  ``"returns"``
#: marks decorator factories: the callback is the argument of the
#: function they return.
CALLBACK_REGISTRARS = {
    ("repro.net.gcf", "GCFProcess.on_request"): "returns",
    ("repro.net.gcf", "GCFProcess.on_notification"): "returns",
    ("repro.net.gcf", "GCFProcess.on_bulk_sink"): "returns",
    ("repro.net.gcf", "GCFProcess.on_bulk_source"): "returns",
    ("repro.net.gcf", "GCFProcess.on_connect"): (1,),
    ("repro.net.gcf", "GCFProcess.on_disconnect"): (1,),
    ("repro.net.gcf", "GCFProcess.install_batch_dispatch"): ("on_error", "guard", "observe"),
    ("repro.ocl.event", "Event.set_callback"): (1, "callback"),
}

_SPAN_FIELDS = ("id", "parent", "root", "layer", "name", "start_ns", "end_ns")


def _tapped(fn: Callable, tap: Callable) -> Callable:
    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        tap(args, kwargs, result)
        return result

    return tapped


def _busy_wait(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class Tracer:
    """Installs, and removes again, the layer wrappers.

    ``inject=(layer, microseconds)`` selects the sensitivity mode: only
    that layer is wrapped and each wrapped call is delayed; otherwise
    every layer is wrapped and spans, self times and counts are kept.
    ``taps`` maps ``(module, qualified name)`` to ``fn(args, kwargs,
    result)``, called after each call of that function (boundary or
    not) for the counts a layer metric needs.
    """

    def __init__(
        self,
        inject: Optional[Tuple[str, float]] = None,
        taps: Optional[Dict[Tuple[str, str], Callable]] = None,
    ) -> None:
        self.inject = inject
        self.taps = taps or {}
        self.layer_names: List[str] = [HARNESS, *LAYERS, OTHER]
        self._index = {name: i for i, name in enumerate(self.layer_names)}
        self.api_layer = self._index["api"]
        n = len(self.layer_names)
        self.self_ns = [0] * n
        self.calls = [0] * n
        #: Wrapped-callable names, indexed by the ``name`` span field.
        self.names: List[str] = ["op"]
        #: Calls per wrapped callable (every call, boundary or not).
        self.fn_calls: List[int] = [0]
        #: Span tuples in :data:`_SPAN_FIELDS` order, appended at span end.
        self.spans: List[tuple] = []
        # [current layer, child-span cover of the open span, open span
        # id, root (API call) id, last span id, keeping spans?]; a list
        # so the wrappers share it without attribute lookups.
        self._state = [0, 0, 0, 0, 0, True]
        self._op_frame = None
        self._undo: List[Tuple[object, str, object]] = []
        self._replaced: Dict[int, object] = {}
        self._module_layer: Dict[str, int] = {}
        self._callback_names: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Import every layer module, wrap it, rebind imported names.

        Must run before any deployment is created: objects capture bound
        methods and handlers at construction."""
        for layer, modules in LAYERS.items():
            for name in modules:
                importlib.import_module(name)
                self._module_layer[name] = self._index[layer]
        for name in sorted(sys.modules):
            if name.startswith("repro.") and name not in self._module_layer:
                if not name.startswith(HARNESS_PACKAGES) and name not in SHARED_MODULES:
                    self._module_layer[name] = self._index[OTHER]
        wanted = None if self.inject is None else self._index[self.inject[0]]
        for name, layer in self._module_layer.items():
            if wanted is None or layer == wanted:
                self._wrap_module(sys.modules[name], layer)
        self._rebind_imports()

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._replaced.clear()

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def _wrap_module(self, module: types.ModuleType, layer: int) -> None:
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, types.FunctionType):
                wrapper = self._wrap(value, layer, module.__name__, name)
                self._replaced[id(value)] = wrapper
                self._set(module, name, wrapper)
            elif isinstance(value, type):
                self._wrap_class(value, layer, module.__name__)

    def _wrap_class(self, cls: type, layer: int, module: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(value, types.FunctionType):
                self._set(cls, name, self._wrap(value, layer, module, qualname))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = self._wrap(value.__func__, layer, module, qualname)
                self._set(cls, name, type(value)(inner))

    def _rebind_imports(self) -> None:
        """``from x import f`` bound the original in the importer."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, attr, wrapper)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: int, module: str, qualname: str) -> Callable:
        key = (module, qualname)
        if self.inject is not None:
            wrapper = self._delaying(fn, int(self.inject[1] * 1000))
        else:
            inner = fn
            if key in CALLBACK_REGISTRARS:
                inner = self._registrar(fn, CALLBACK_REGISTRARS[key])
            self.names.append(f"{module}.{qualname}")
            self.fn_calls.append(0)
            wrapper = self._spanning(inner, layer, len(self.names) - 1, self.taps.get(key))
        return functools.wraps(fn)(wrapper)

    @staticmethod
    def _delaying(fn: Callable, delay_ns: int) -> Callable:
        def wrapper(*args, **kwargs):
            _busy_wait(delay_ns)
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn: Callable, layer: int, name: int, tap: Optional[Callable]) -> Callable:
        state, self_ns, calls, fn_calls = self._state, self.self_ns, self.calls, self.fn_calls
        record = self.spans.append
        clock = time.perf_counter_ns
        is_api = layer == self.api_layer
        if tap is not None:
            fn = _tapped(fn, tap)

        def wrapper(*args, **kwargs):
            fn_calls[name] += 1
            caller = state[0]
            if caller == layer:
                return fn(*args, **kwargs)
            cover = state[1]
            state[0], state[1] = layer, 0
            if not state[5]:  # aggregates only
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    self_ns[layer] += took - state[1]
                    calls[layer] += 1
                    state[0], state[1] = caller, cover + took
            parent, root = state[2], state[3]
            span = state[2] = state[4] = state[4] + 1
            if is_api and not root:
                state[3] = span
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_ns[layer] += end - start - state[1]
                calls[layer] += 1
                record((span, parent, state[3], layer, name, start, end))
                state[0], state[1], state[2], state[3] = caller, cover + end - start, parent, root

        return wrapper

    def _registrar(self, fn: Callable, spec) -> Callable:
        """Wrap the callbacks a registration function receives."""
        wrap_callback = self._wrap_callback
        if spec == "returns":

            def factory(*args, **kwargs):
                register = fn(*args, **kwargs)
                return lambda callback: register(wrap_callback(callback))

            return factory

        positions = [s for s in spec if isinstance(s, int)]
        keywords = [s for s in spec if isinstance(s, str)]

        def registrar(*args, **kwargs):
            args = list(args)
            for i in positions:
                if i < len(args):
                    args[i] = wrap_callback(args[i])
            for key in keywords:
                if key in kwargs:
                    kwargs[key] = wrap_callback(kwargs[key])
            return fn(*args, **kwargs)

        return registrar

    def _wrap_callback(self, callback):
        """A span wrapper for one callback object; callbacks of one
        definition (a closure made per call) share a name."""
        module = getattr(callback, "__module__", None)
        layer = self._module_layer.get(module)
        if layer is None or not callable(callback):
            return callback
        label = f"{module}.{getattr(callback, '__qualname__', type(callback).__name__)}"
        name = self._callback_names.get(label)
        if name is None:
            name = self._callback_names[label] = len(self.names)
            self.names.append(label)
            self.fn_calls.append(0)
        return self._spanning(callback, layer, name, None)

    # ------------------------------------------------------------------
    # the harness's own spans
    # ------------------------------------------------------------------
    def begin_op(self) -> None:
        """Open the harness span one timed op runs under."""
        state = self._state
        span = state[4] = state[4] + 1
        state[0], state[1], state[2], state[3] = 0, 0, span, 0
        self._op_frame = (span, time.perf_counter_ns())

    def end_op(self) -> int:
        """Close the op span; returns its duration in ns."""
        end = time.perf_counter_ns()
        span, start = self._op_frame
        state = self._state
        self.self_ns[0] += end - start - state[1]
        self.calls[0] += 1
        if state[5]:
            self.spans.append((span, 0, 0, 0, 0, start, end))
            state[5] = self.calls[0] < SPAN_OPS
        state[0], state[1], state[2], state[3] = 0, 0, 0, 0
        return end - start

    def reset(self) -> None:
        """Zero the sums and counts (set-up is over); spans are kept."""
        n = len(self.layer_names)
        self.self_ns[:] = [0] * n
        self.calls[:] = [0] * n
        self.fn_calls[:] = [0] * len(self.fn_calls)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def calls_of(self, module: str, qualname: str) -> int:
        """Calls one wrapped callable received (boundary or not)."""
        return self.fn_calls[self.names.index(f"{module}.{qualname}")]

    def calls_in(self, module: str) -> int:
        """Calls every wrapped callable of one module received."""
        prefix = module + "."
        return sum(n for name, n in zip(self.names, self.fn_calls) if name.startswith(prefix))

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_ms": ..., "calls": ...}}`` since the last reset."""
        return {
            name: {"self_ms": self.self_ns[i] / 1e6, "calls": self.calls[i]}
            for i, name in enumerate(self.layer_names)
        }

    def write(self, path: str, meta: dict) -> None:
        """Dump the spans kept in memory, column-wise, as JSON."""
        columns = {field: [span[i] for span in self.spans] for i, field in enumerate(_SPAN_FIELDS)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "layers": self.layer_names,
                    "names": self.names,
                    "fields": list(_SPAN_FIELDS),
                    "spans": columns,
                },
                fh,
            )
