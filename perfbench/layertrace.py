"""Outside-in layer tracing: timing wrappers around public entry points.

Nothing under ``src/`` knows about this module.  A :class:`LayerTrace`
replaces module attributes (where the caller looks them up), class
methods and per-object bound methods with wrappers that time each call,
then puts every original back.  Spans nest through a stack of child-time
accumulators, so a span's *self* time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()


class LayerTrace:
    """Span totals, self times, call counts and named counts of one pass."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.wall = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(result, args)`` runs after the span closes, so the
        work it does (counting) is not charged to the layer.
        """
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ---------------------------------------------------------- patches

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a module global, class method or bound
        method of one object) until :meth:`installed` exits."""
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def patch_path(self, path: str, name: str, on_result=None) -> None:
        """``patch`` by dotted path: ``"pkg.module.attr"`` or
        ``"pkg.module.Class.method"``."""
        module_name, _, rest = path.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = rest.split(".")
        for part in owners:
            owner = getattr(owner, part)
        self.patch(owner, attr, name, on_result)

    @contextmanager
    def installed(self, paths):
        """Install ``(path, span, on_result)`` wrappers for the block;
        wrappers added with :meth:`patch` inside it are restored too."""
        try:
            for path, name, on_result in paths:
                self.patch_path(path, name, on_result)
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
            if vars(owner).get(attr, _MISSING) is not own:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    # --------------------------------------------------------- combining

    def scaled(self, factor: float) -> "LayerTrace":
        out = LayerTrace()
        for src, dst in (
            (self.total, out.total),
            (self.self_time, out.self_time),
            (self.calls, out.calls),
            (self.counts, out.counts),
        ):
            for key, value in src.items():
                dst[key] = value * factor
        out.wall = self.wall * factor
        return out

    def add(self, other: "LayerTrace") -> None:
        for src, dst in (
            (other.total, self.total),
            (other.self_time, self.self_time),
            (other.calls, self.calls),
            (other.counts, self.counts),
        ):
            for key, value in src.items():
                dst[key] += value
        self.wall += other.wall

    @classmethod
    def mean(cls, traces) -> "LayerTrace":
        out = cls()
        for trace in traces:
            out.add(trace.scaled(1.0 / len(traces)))
        return out
