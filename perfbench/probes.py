"""Outside-in probes: the admission-backend seam and layer spans.

Everything here wraps public entry points from the benchmark's side:
the executor's ``backend=`` seam (a backend whose managers forward to
the real ones), the implementations' ``abstract_state``,
``repro.impls.invoke_concrete``, ``repro.runtime.transaction.rollback``
and the ``repro.service.protocol`` frame builders and codec the client
calls.  Work inside ``check_many`` (the undo guard, the decision paths)
is not visible from outside; only its counters are reported.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.runtime import AdmissionBackend

perf_counter = time.perf_counter

#: The span from a manager's open to its close: the executor's
#: scheduling window, which every layer share is a share of.
WINDOW = "executor.window"


class Tracer:
    """Spans ``(id, name, start, end, parent id, batch id)`` kept in
    memory and written out once the run ends, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: Stamped on every span; the runner sets it per batch.
        self.batch = -1
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, perf_counter()))
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, name, start, end, parent, self.batch))

    def unwind(self) -> None:
        """Close every open span (after a batch raised mid-call)."""
        while self._stack:
            self.close()

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is ``name``."""
        return bool(self._stack) and self._stack[-1][1] == name

    def call(self, name: str, fn, /, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, batch."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class ProbeBackend(AdmissionBackend):
    """Forwards to a real backend and times every ``check_many`` call.
    With :attr:`tracer` set it also records the executor-window span (a
    manager's open to its close) and one span per manager call."""

    def __init__(self, inner: AdmissionBackend) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.supports_threads = inner.supports_threads
        self.tracer: Tracer | None = None
        self._check_s: list[float] = []

    def take(self) -> list[float]:
        """The check durations since the last call."""
        taken, self._check_s = self._check_s, []
        return taken

    def conflict_manager(self, ds_name: str, **kwargs):
        tracer = self.tracer
        if tracer is not None:
            tracer.open(WINDOW)
            tracer.open("gatekeeper.open")
        try:
            manager = self.inner.conflict_manager(ds_name, **kwargs)
        finally:
            if tracer is not None:
                tracer.close()
        return _ProbedManager(manager, self._check_s, tracer)

    def close(self) -> None:
        self.inner.close()


class _ProbedManager:
    """A manager that forwards every attribute to the real one."""

    def __init__(self, inner, check_s: list[float],
                 tracer: Tracer | None) -> None:
        self._inner = inner
        self._check_s = check_s
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def check_many(self, *args, **kwargs):
        tracer = self._tracer
        if tracer is not None:
            tracer.open("gatekeeper.check")
        start = perf_counter()
        try:
            return self._inner.check_many(*args, **kwargs)
        finally:
            self._check_s.append(perf_counter() - start)
            if tracer is not None:
                tracer.close()

    def record(self, *args, **kwargs):
        if self._tracer is None:
            return self._inner.record(*args, **kwargs)
        return self._tracer.call("gatekeeper.record", self._inner.record,
                                 *args, **kwargs)

    def release(self, *args, **kwargs):
        if self._tracer is None:
            return self._inner.release(*args, **kwargs)
        return self._tracer.call("gatekeeper.release", self._inner.release,
                                 *args, **kwargs)

    def close(self) -> None:
        tracer = self._tracer
        if tracer is None:
            return self._inner.close()
        try:
            tracer.call("gatekeeper.close", self._inner.close)
        finally:
            tracer.close()  # the executor window


def _rebind(original, replacement, undo: list, home: bool = True) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (recording how to undo it).  ``home=False`` leaves
    the defining module alone, so the function's internal callers stay
    unwrapped."""
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        if not home and module_name == original.__module__:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _frame_builder(tracer: Tracer, build):
    def traced(*args, **kwargs):
        tracer.counters["service.frames"] += 1
        return tracer.call("service.encode", build, *args, **kwargs)
    return traced


def _packer(tracer: Tracer, pack):
    def traced(frame):
        in_check = tracer.inside("gatekeeper.check")
        data = tracer.call("service.encode", pack, frame)
        if in_check:
            tracer.counters["service.req_bytes"] += len(data)
        return data
    return traced


def _decoder(tracer: Tracer, decode):
    def traced(body):
        if tracer.inside("gatekeeper.check"):
            tracer.counters["service.resp_bytes"] += len(body)
        return tracer.call("service.decode", decode, body)
    return traced


@contextmanager
def instrument(tracer: Tracer, impl_classes):
    """Wrap the layer entry points for one traced batch, then restore."""
    from repro import impls
    from repro.runtime import transaction
    undo: list = []
    patched: set = set()
    for cls in impl_classes:
        owner = next(k for k in cls.__mro__ if "abstract_state" in vars(k))
        if owner not in patched:
            patched.add(owner)
            original = vars(owner)["abstract_state"]
            undo.append((owner, "abstract_state", original))
            owner.abstract_state = tracer.wrap("impls.state", original)
    # ``invoke`` (load phase, serial replay, inverse application) calls
    # invoke_concrete inside its own module: only outside callers — the
    # executor's apply step — are wrapped.
    _rebind(impls.invoke_concrete,
            tracer.wrap("impls.apply", impls.invoke_concrete), undo,
            home=False)
    _rebind(transaction.rollback,
            tracer.wrap("transaction.rollback", transaction.rollback), undo)
    protocol = sys.modules.get("repro.service.protocol")
    if protocol is not None:
        for name in ("check_frame", "record_frame", "release_frame"):
            build = getattr(protocol, name)
            _rebind(build, _frame_builder(tracer, build), undo)
        _rebind(protocol.pack_frame, _packer(tracer, protocol.pack_frame),
                undo)
        _rebind(protocol.decode_body,
                _decoder(tracer, protocol.decode_body), undo)
    try:
        yield
    finally:
        for target, name, value in reversed(undo):
            setattr(target, name, value)


@dataclass
class Layer:
    """Totals of one span name inside executor windows."""

    calls: int = 0
    inclusive: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)

    @property
    def mean_us(self) -> float:
        return 1e6 * self.inclusive / self.calls if self.calls else 0.0


def layer_times(spans) -> tuple[dict[str, Layer], float]:
    """Per-name totals over the spans inside executor windows, and the
    windows' summed duration.  A span's self time is its duration minus
    the durations of its child spans."""
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    children: dict[int, float] = defaultdict(float)
    for span_id, name, start, end, parent, _ in spans:
        parent_of[span_id] = parent
        name_of[span_id] = name
        if parent >= 0:
            children[parent] += end - start
    in_window: dict[int, bool] = {-1: False}

    def inside(span_id: int) -> bool:
        path = []
        while span_id not in in_window:
            if name_of[span_id] == WINDOW:
                in_window[span_id] = True
                break
            path.append(span_id)
            span_id = parent_of[span_id]
        verdict = in_window[span_id]
        for seen in path:
            in_window[seen] = verdict
        return verdict

    layers: dict[str, Layer] = defaultdict(Layer)
    windows = 0.0
    for span_id, name, start, end, parent, _ in spans:
        duration = end - start
        if name == WINDOW:
            windows += duration
        elif inside(parent):
            layer = layers[name]
            layer.calls += 1
            layer.inclusive += duration
            layer.self_s += duration - children[span_id]
            layer.durations.append(duration)
    return layers, windows
