"""Layer-boundary tracing from outside the program, plus the benchmark's statistics.

The benchmark never edits the program to trace it. A :class:`Tracer` replaces
chosen functions and methods of the ``repro`` package with thin wrappers that
record one span each time control crosses from one layer into another, and puts
the originals back on :meth:`Tracer.restore`. Spans are appended to flat arrays
in completion order (a span is written when it ends), kept in memory, and
written out once the run is over.

A wrapper called while the innermost open span already belongs to its own layer
records nothing: same-layer nesting does not change any layer's self time, and
skipping it keeps the span count at one per layer crossing.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: A span as :func:`self_times` consumes it: ``(layer, start_ns, end_ns)``.
Span = Tuple[int, int, int]
LayerOf = Union[str, Callable[[object], str]]


def self_times(spans: Iterable[Span], n_layers: int) -> List[int]:
    """Per-layer self time in nanoseconds from spans given in completion order.

    A span's self time is its duration minus the time its direct child spans
    cover. Spans must nest properly (one thread) and arrive in the order they
    ended, which is the order the tracer records them: every child therefore
    arrives before its parent, and the open children of a span are exactly the
    completed spans still on the stack that started at or after it.
    """
    totals = [0] * n_layers
    pending: List[Tuple[int, int]] = []  # (start, end) of spans awaiting a parent
    last_end = None
    for layer, start, end in spans:
        if end < start or (last_end is not None and end < last_end):
            raise ValueError(f"span [{start}, {end}] is not in completion order")
        last_end = end
        children = 0
        while pending and pending[-1][0] >= start:
            child_start, child_end = pending.pop()
            children += child_end - child_start
        if pending and pending[-1][1] > start:
            raise ValueError(f"span [{start}, {end}] overlaps an earlier span")
        totals[layer] += end - start - children
        pending.append((start, end))
    return totals


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values`` by linear interpolation.

    The median is always available. A higher percentile is refused unless at
    least ten samples lie beyond it, since fewer make it a reading of the few
    slowest samples rather than of the tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile out of range: {q}")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    beyond = n - math.ceil(q * n - 1e-9)  # the tolerance absorbs float error in q * n
    if q > 0.5 and beyond < 10:
        raise ValueError(
            f"p{q * 100:g} needs at least 10 samples beyond it; {n} samples leave {beyond}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer figures."""

    def __init__(self, layers: Sequence[str]) -> None:
        self.layers = list(layers)
        self._ids = {name: index for index, name in enumerate(self.layers)}
        self.kinds = array("B")
        self.starts = array("q")
        self.ends = array("q")
        #: Entries into each layer from another layer (= spans recorded).
        self.calls = [0] * len(self.layers)
        #: Wrappers record only while this is set; otherwise they pass straight through.
        self.active = False
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ installing

    def wrap_method(
        self, cls: type, name: str, layer: LayerOf,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Wrap the function ``name`` defined on ``cls`` itself.

        ``layer`` is a layer name, or a function of the instance that returns one
        (for a base-class method whose layer depends on the subclass it serves).
        ``observe(args, result)`` runs after every call made while recording,
        nested same-layer calls included.
        """
        original = cls.__dict__[name]
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{name} is not a plain method")
        setattr(cls, name, self._wrapper(original, layer, observe))
        self._patches.append((cls, name, original))

    def wrap_methods(
        self, cls: type, layer: LayerOf, skip: Sequence[str] = (),
        observers: Optional[Dict[str, Callable[[tuple, object], None]]] = None,
    ) -> None:
        """Wrap every plain function defined on ``cls`` except dunders and ``skip``;
        ``observers`` maps method names to their ``observe`` callbacks."""
        observers = observers or {}
        for name, value in list(vars(cls).items()):
            if name.startswith("__") or name in skip:
                continue
            if callable(value) and not isinstance(value, (type, staticmethod, classmethod)):
                self.wrap_method(cls, name, layer, observers.get(name))

    def wrap_function(
        self, module, name: str, layer: LayerOf,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Wrap a module-level function in its module and wherever a ``repro``
        module imported it by name."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, observe)
        importers = [loaded for loaded_name, loaded in list(sys.modules.items())
                     if loaded_name == "repro" or loaded_name.startswith("repro.")]
        for owner in [module] + [m for m in importers if m is not module]:
            if getattr(owner, name, None) is original:
                setattr(owner, name, wrapper)
                self._patches.append((owner, name, original))

    def wrap_module(self, module, layer: str) -> None:
        """Wrap every function and every class method defined in ``module``."""
        for name, value in list(vars(module).items()):
            if name.startswith("__") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                self.wrap_methods(value, layer)
            elif callable(value):
                self.wrap_function(module, name, layer)

    def restore(self) -> None:
        """Put every wrapped function back, most recent first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.active = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _resolver(self, layer: LayerOf):
        if isinstance(layer, str):
            return self._ids[layer]
        ids, cache = self._ids, {}

        def resolve(instance) -> int:
            kind = type(instance)
            found = cache.get(kind)
            if found is None:
                found = cache[kind] = ids[layer(instance)]
            return found

        return resolve

    def _wrapper(self, fn, layer: LayerOf, observe):
        resolved = self._resolver(layer)
        fixed = isinstance(resolved, int)
        stack, calls = self._stack, self.calls
        kinds, starts, ends = self.kinds.append, self.starts.append, self.ends.append
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            layer_id = resolved if fixed else resolved(args[0])
            if stack[-1] == layer_id:
                result = fn(*args, **kwargs)
            else:
                calls[layer_id] += 1
                stack.append(layer_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    kinds(layer_id)
                    starts(start)
                    ends(end)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ results

    @property
    def span_count(self) -> int:
        return len(self.kinds)

    def self_seconds(self) -> Dict[str, float]:
        totals = self_times(zip(self.kinds, self.starts, self.ends), len(self.layers))
        return {name: totals[i] / 1e9 for i, name in enumerate(self.layers)}

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def dump(self, path: Path) -> None:
        """Write the spans gzipped: one JSON header line, then the three raw
        arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"layers": self.layers, "spans": self.span_count, "byteorder": sys.byteorder,
                  "arrays": ["layer:uint8", "start_ns:int64", "end_ns:int64"]}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.kinds, self.starts, self.ends):
                out.write(column.tobytes())
