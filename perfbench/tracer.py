"""Outside-in span tracer for the ringsim layers.

The tracer replaces public functions of the package modules with wrappers
that record one span per call: name, start, end, parent and thread. Spans
are folded into per-name aggregates when they close, so memory stays
bounded by the spans open at one time.

Parent rule: a span opened on a thread whose own stack is empty (a worker
of the CLI thread pool) is parented to the innermost open span of the root
thread, the thread that opened the outermost span. That is the span that
caused the work, and it makes spans of several threads children of one
parent. Their intervals can overlap, so a span's self time is its duration
minus the length of the *union* of its children's intervals, never minus
their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# The six layers, in the order the work flows through them.
LAYERS = ("ring", "network", "fock", "analysis", "cnot", "cli")

# Public helpers left unwrapped: both are called inside inner loops
# (wrap_angle several times per Newton step, enumerate_basis for every state
# vector built), so a span around them would cost more than the work it
# times. Their time counts as self time of the calling span.
UNTRACED = frozenset({"analysis.wrap_angle", "fock.enumerate_basis"})


class Span:
    __slots__ = ("name", "start", "parent", "thread", "children")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 thread: int):
        self.name = name
        self.start = start
        self.parent = parent
        self.thread = thread
        self.children: list[tuple[float, float]] = []


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Tracer:
    """Per-thread span stacks folded into per-name call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[Span] | None = None
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.self_s: dict[str, float] = defaultdict(float)
            self.threads: set[int] = set()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, stack: list[Span], thread: int,
             t: float) -> Span:
        """Push a span on the given thread's stack and return it."""
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            if root:
                try:
                    parent = root[-1]
                except IndexError:  # the root span closed meanwhile
                    parent = None
            else:
                parent = None
                self._root_stack = stack
        span = Span(name, t, parent, thread)
        stack.append(span)
        return span

    def close(self, span: Span, stack: list[Span], t: float) -> None:
        """Pop the span and fold it into the aggregates."""
        stack.pop()
        own = t - span.start - union_length(span.children, span.start, t)
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            self.threads.add(span.thread)
            if span.parent is not None:
                span.parent.children.append((span.start, t))

    def begin(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        return self.open(name, stack, threading.get_ident(), self.clock()), stack

    def end(self, span: Span, stack: list[Span]) -> None:
        self.close(span, stack, self.clock())

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out


def wrap(tracer: Tracer, name: str, fn):
    """fn with a span named name around each call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, stack = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span, stack)
    return wrapper


def _layer_functions(module) -> dict[str, object]:
    """Public functions defined in a layer module, keyed by span name."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        name = f"{layer}.{attr}"
        if name not in UNTRACED:
            out[name] = obj
    return out


def _package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def install(tracer: Tracer, package: str = "ringsim") -> dict[str, object]:
    """Wrap every traced function and rebind it in every package module.

    Modules that import a function by name hold their own binding, so each
    binding is replaced. Returns the originals keyed by span name.
    """
    originals: dict[str, object] = {}
    for layer in LAYERS:
        originals.update(_layer_functions(sys.modules[f"{package}.{layer}"]))
    wrappers = {id(fn): wrap(tracer, name, fn)
                for name, fn in originals.items()}
    for module in _package_modules(package):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    return originals


def unwrapped_bindings(originals: dict[str, object],
                       package: str = "ringsim") -> list[str]:
    """Bindings in package modules that still hold an original function."""
    ids = {id(fn) for fn in originals.values()}
    return [f"{module.__name__}.{attr}"
            for module in _package_modules(package)
            for attr, obj in vars(module).items() if id(obj) in ids]
