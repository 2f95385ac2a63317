"""Span tracer installed around the package's public functions from outside.

`Tracer.install` wraps every public function and public method of the layer
modules, rebinding each wrapper at every place the original is imported
(module globals of the whole package, and class attributes).  Nothing under
`src/` is edited, and `uninstall` puts every original back.

Each call records one span: name, thread, start, end and the span that caused
it.  A span opened by a pool worker whose own stack is empty is attributed to
the span open on the thread that installed the tracer, so a sweep's worker
spans become children of `cli.main`.  Spans are kept in per-thread arrays and
turned into per-name statistics by `summarize`, where a span's self time is
its duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

PACKAGE = "oblique_stab"

# Layer modules, in the order of the pipeline.  None wraps every public
# function and method of the module; the CLI's other public functions are
# dispatched through its own tables, so only the entry point is wrapped.
LAYERS: dict[str, tuple[str, ...] | None] = {
    "cli": ("main",),
    "actuators": None,
    "spectral": None,
    "quadrature": None,
    "linalg": None,
    "projection": None,
    "fem": None,
}


@dataclass
class _ThreadLog:
    slot: int
    name: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("q"))
    stack: list = field(default_factory=list)


@dataclass(frozen=True)
class Spans:
    """Flat span table: parallel sequences, parent is an index or -1."""

    names: list[str]
    name: Sequence[int]
    thread: Sequence[int]
    start: Sequence[float]
    end: Sequence[float]
    parent: Sequence[int]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Spans) -> array:
    """Duration of each span minus the union of its children's intervals.

    Children on the parent's own thread run one after another, so their
    durations add; when any child ran on another thread, the children may
    overlap and the covered length is the union of their intervals, clipped
    to the parent's.
    """
    n = len(spans.start)
    mixed = {
        p
        for i, p in enumerate(spans.parent)
        if p >= 0 and spans.thread[p] != spans.thread[i]
    }
    covered = array("d", bytes(8 * n))
    intervals: dict[int, list[tuple[float, float]]] = {p: [] for p in mixed}
    for i, p in enumerate(spans.parent):
        if p < 0:
            continue
        if p in intervals:
            lo = max(spans.start[i], spans.start[p])
            hi = min(spans.end[i], spans.end[p])
            if hi > lo:
                intervals[p].append((lo, hi))
        else:
            covered[p] += spans.end[i] - spans.start[i]
    for p, ivs in intervals.items():
        covered[p] = _union_length(ivs)
    return array("d", (spans.end[i] - spans.start[i] - covered[i] for i in range(n)))


def summarize(spans: Spans) -> dict[str, SpanStats]:
    """Calls, total and self time per span name."""
    own = self_times(spans)
    stats: dict[str, SpanStats] = {}
    for i, nid in enumerate(spans.name):
        s = stats.setdefault(spans.names[nid], SpanStats())
        s.calls += 1
        s.total_s += spans.end[i] - spans.start[i]
        s.self_s += own[i]
    return stats


def offthread_busy_s(spans: Spans, main_thread: int) -> float:
    """Time spans on threads other than main_thread kept those threads busy.

    Only spans whose parent is on another thread (or absent) count, so nested
    spans are not counted twice; one thread's such spans never overlap.
    """
    busy = 0.0
    for i, p in enumerate(spans.parent):
        if spans.thread[i] == main_thread:
            continue
        if p < 0 or spans.thread[p] != spans.thread[i]:
            busy += spans.end[i] - spans.start[i]
    return busy


class Tracer:
    """Records spans of wrapped callables; `install` wraps the package."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self.main_slot = 0
        self.reset()

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        """Drop every recorded span and counter; call with no span open."""
        with self._lock:
            self._local = threading.local()
            self._logs: list[_ThreadLog] = []
        self.counters = {}
        self.main_slot = self._log().slot

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = _ThreadLog(slot=len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span named name.

        on_result(result) may replace the result, for example to wrap a
        callable the function returns.
        """
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            i = len(log.start)
            if log.stack:
                parent = (log.slot << 32) | log.stack[-1]
            else:
                parent = self._adopt(log)
            log.name.append(nid)
            log.parent.append(parent)
            log.end.append(0.0)
            log.stack.append(i)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = clock()
                log.stack.pop()
            return result if on_result is None else on_result(result)

        traced.__traced_span__ = name
        return traced

    def _adopt(self, log: _ThreadLog) -> int:
        """Parent for a span opened with an empty stack: the span open on the
        main thread, when log belongs to another thread."""
        if log.slot == self.main_slot:
            return -1
        main = self._logs[self.main_slot]
        stack = main.stack
        top = stack[-1] if stack else -1
        return -1 if top < 0 else (main.slot << 32) | top

    def spans(self) -> Spans:
        """Every recorded span in one table, parents resolved to indices."""
        logs = list(self._logs)
        offsets, total = [], 0
        for log in logs:
            offsets.append(total)
            total += len(log.start)
        table = Spans(list(self._names), array("i"), array("i"), array("d"), array("d"), array("q"))
        for log in logs:
            table.name.extend(log.name)
            table.thread.extend([log.slot] * len(log.start))
            table.start.extend(log.start)
            table.end.extend(log.end)
            table.parent.extend(
                -1 if packed < 0 else offsets[packed >> 32] + (packed & 0xFFFFFFFF)
                for packed in log.parent
            )
        return table

    # ------------------------------------------------------------ install

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace original by wrapper in every loaded module of the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self, hooks: dict | None = None) -> list[str]:
        """Wrap the public callables of every layer module.

        hooks maps a span name to an on_result callback (see wrap).  Returns
        the layer modules that could not be imported; names that do not
        exist are simply not wrapped, and `wrapped` lists those that are.
        """
        hooks = hooks or {}
        missing = []
        for layer, only in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                missing.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if only is not None and attr not in only:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    self._rebind(obj, self.wrap(name, obj, hooks.get(name)))
                    self.wrapped.add(name)
                elif inspect.isclass(obj) and only is None:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._patch(obj, meth, self.wrap(name, fn, hooks.get(name)))
                        self.wrapped.add(name)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.wrapped.clear()


def wrap_second(tracer: Tracer, name: str):
    """on_result hook for functions returning (coefficients, evaluator)."""

    def hook(result):
        if isinstance(result, tuple) and len(result) == 2 and callable(result[1]):
            return result[0], tracer.wrap(name, result[1])
        return result

    return hook


def wrap_field_values(tracer: Tracer, name: str):
    """on_result hook for factories returning a dataclass with a `values` callable."""

    def hook(result):
        if dataclasses.is_dataclass(result) and callable(getattr(result, "values", None)):
            return dataclasses.replace(result, values=tracer.wrap(name, result.values))
        return result

    return hook


def count_first_len(tracer: Tracer, counter: str):
    """on_result hook adding len(result[0]) to a counter, e.g. quadrature nodes."""

    def hook(result):
        try:
            tracer.count(counter, len(result[0]))
        except TypeError:
            pass
        return result

    return hook
