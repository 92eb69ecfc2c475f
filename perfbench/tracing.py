"""Span tracer that wraps orbitmm's public functions from outside the package.

`Tracer.install` replaces every public function of the layer modules (the
names in each module's `__all__` that the module itself defines) by a timing
wrapper, at every import site inside the package: `orbitmm.verify.tensor_of`
and `orbitmm.cli.verify_float` are patched as well as the defining module.
`Tracer.uninstall` puts the originals back, so untraced phases run the
unmodified package.

A span is one list `[id, parent, root, op, name, t0, t1, self_s, attrs]`.
Spans of one benchmark op share `op`; `self_s` is the span's duration minus
the durations of its direct children.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from contextlib import contextmanager
from time import process_time

PACKAGE = "orbitmm"
LAYERS = (
    "tensor",
    "frames",
    "constructions",
    "fourier2",
    "constraints",
    "verify",
    "bilinear",
    "serialize",
    "cli",
)

ID, PARENT, ROOT, OP, NAME, T0, T1, SELF, ATTRS = range(9)

WRAPPER_CALLS = 20000
WRAPPER_REPS = 5


class Tracer:
    def __init__(self, annotate: dict | None = None):
        """`annotate` maps a span name to `fn(args, kwargs, result) -> dict`,
        called after the span closes; the dict is stored on the span."""
        self.annotate = annotate or {}
        self.spans: list[list] = []
        self.op = None
        self._stack: list[list] = []  # [span, seconds covered by children]
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        sid = len(self.spans)
        span = [
            sid,
            stack[-1][0][ID] if stack else None,
            stack[0][0][ID] if stack else sid,
            self.op,
            name,
            0.0,
            None,
            None,
            None,
        ]
        self.spans.append(span)
        stack.append([span, 0.0])
        span[T0] = process_time()
        return span

    def _close(self) -> None:
        t1 = process_time()
        span, covered = self._stack.pop()
        dur = t1 - span[T0]
        span[T1] = t1
        span[SELF] = dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name: str, fn):
        annotate = self.annotate.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if annotate is not None:
                span[ATTRS] = annotate(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)

    # -- queries ---------------------------------------------------------

    def select(self, ops, name: str | None = None) -> list:
        """Spans of the given ops, optionally only those called `name`."""
        ops = set(ops)
        return [s for s in self.spans if s[OP] in ops and (name is None or s[NAME] == name)]

    def count_by_root(self, ops, name: str) -> dict:
        """Map each top-level span id to the number of `name` spans under it."""
        out = {}
        for s in self.select(ops, name=name):
            out[s[ROOT]] = out.get(s[ROOT], 0) + 1
        return out

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as one JSON document."""
        fields = ("id", "parent", "root", "op", "name", "t0", "t1", "self_s", "attrs")
        with open(path, "w") as fh:
            json.dump({**header, "span_fields": fields, "spans": self.spans}, fh)


def wrapper_call_seconds() -> float:
    """Seconds a tracing wrapper adds to one call: WRAPPER_CALLS calls of a
    wrapped no-op minus as many bare calls, median of WRAPPER_REPS timings.
    Annotations are not included."""

    def noop():
        pass

    diffs = []
    for _ in range(WRAPPER_REPS):
        traced = Tracer()._wrap("noop", noop)
        t0 = process_time()
        for _ in range(WRAPPER_CALLS):
            noop()
        t1 = process_time()
        for _ in range(WRAPPER_CALLS):
            traced()
        t2 = process_time()
        diffs.append(((t2 - t1) - (t1 - t0)) / WRAPPER_CALLS)
    return statistics.median(diffs)
