"""Spans at the layer boundaries of occufrac, recorded from outside the
package.

A layer's public function gets a span under the name other code calls it
by: the references one layer module holds to another's functions (for
example `polynomials.canonical_key` or `hardcore.solve`) and the modules
the benchmark itself calls through. Calls inside one module stay
unwrapped, so a span's self time includes that module's private helpers
and its own internal calls. The source is never edited; `install` swaps
module attributes and `uninstall` puts them back.

Spans are aggregated on the fly: per name, the call count and the self
time (the span's duration minus the time of the spans it caused).
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import Counter, defaultdict

LAYERS = ("graphs", "lp", "polynomials", "hardcore", "matching", "bounds")
PACKAGE = "occufrac"


def _layer_of(obj):
    """The layer module that defines a public, non-generator function, or
    None for anything else (classes, generators, helpers of other
    packages)."""
    if inspect.isclass(obj) or not callable(obj):
        return None
    name = getattr(obj, "__name__", "")
    module = getattr(obj, "__module__", "") or ""
    prefix, _, short = module.rpartition(".")
    if prefix != PACKAGE or short not in LAYERS or name.startswith("_"):
        return None
    if inspect.isgeneratorfunction(inspect.unwrap(obj)):
        return None
    return short


class Tracer:
    """Aggregated spans over the layer modules. `hooks` maps a span name to
    a function of the call's arguments that runs before the span starts,
    for work counts that must not be timed; `clock` times the spans."""

    def __init__(self, hooks=None, clock=time.perf_counter):
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list = []
        self._wrappers: dict = {}
        self._saved: list = []

    def _wrap(self, span: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        stack, self_s, calls = self._stack, self.self_s, self.calls
        hook = self.hooks.get(span)
        clock = self.clock

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[span] += elapsed - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__wrapped__ = fn
        self._wrappers[key] = wrapper
        return wrapper

    def _swap(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, clients=()) -> None:
        """Wrap the cross-layer references inside the layer modules and, in
        each client module, replace every layer module it holds with a copy
        whose own public functions are wrapped."""
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
        for short, module in modules.items():
            for name, obj in list(vars(module).items()):
                owner = _layer_of(obj)
                if owner is not None and owner != short:
                    self._swap(module, name, self._wrap(f"{owner}.{obj.__name__}", obj))
        for client in clients:
            for name, obj in list(vars(client).items()):
                if not isinstance(obj, types.ModuleType):
                    continue
                short = obj.__name__.rpartition(".")[2]
                if modules.get(short) is not obj:
                    continue
                view = types.SimpleNamespace(**vars(obj))
                for fname, fn in vars(obj).items():
                    if _layer_of(fn) == short:
                        setattr(view, fname, self._wrap(f"{short}.{fn.__name__}", fn))
                self._swap(client, name, view)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def module_self_s(self) -> dict:
        """Self time summed per layer module."""
        out: defaultdict = defaultdict(float)
        for span, seconds in self.self_s.items():
            out[span.partition(".")[0]] += seconds
        return dict(out)
