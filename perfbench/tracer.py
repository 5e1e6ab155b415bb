"""Per-layer spans taken from outside the program.

``Tracer.install()`` wraps, for the duration of a ``with`` block, every
public function of the starkprobe layer modules, plus the scipy/numpy
kernels they call (``kernel.expm``, ``kernel.eig``).  A function is patched
wherever it is looked up: in the globals of every starkprobe module that
imported it by name, in module-level dicts such as ``experiments._BUILDERS``, and,
for kernels, through per-module copies of ``numpy``, ``numpy.linalg`` and
``scipy.linalg`` bound in place of the real modules.  Nothing outside
starkprobe's namespaces changes, and ``uninstall`` restores every binding.

Each wrapped call is a span.  Spans nest through a thread-local stack; the
experiment thread pool is swapped for one whose tasks adopt the submitting
thread's span as parent, so spans running on pool threads still count as
children.  A span's self time is its duration minus the union of its
children's intervals.  Totals are kept per span name under one lock.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
import scipy.linalg as sla

# Kernel span names for the scipy/numpy calls the layers make.
KERNELS = {
    (sla, "expm"): "kernel.expm",
    (sla, "eig"): "kernel.eig",
    (np.linalg, "eigh"): "kernel.eig",
    (np.linalg, "eigvalsh"): "kernel.eig",
}


class _Span:
    __slots__ = ("name", "children")

    def __init__(self, name):
        self.name = name
        self.children = []


def _union_length(intervals):
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Thread-safe span totals: calls, inclusive seconds and self seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._restore = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def count(self, name, amount=1.0):
        with self._lock:
            self.counts[name] += amount

    def reset(self):
        with self._lock:
            for table in (self.calls, self.seconds, self.self_seconds, self.counts):
                table.clear()

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``.

        ``after(arguments, result)`` runs after each call with the call's
        bound arguments by parameter name, to update counts.
        """
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = _Span(name)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                with tracer._lock:
                    children = list(span.children)
                    if parent is not None:
                        parent.children.append((start, end))
                    tracer.calls[name] += 1
                    tracer.seconds[name] += end - start
                    tracer.self_seconds[name] += (end - start) - _union_length(children)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _adopt(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # -- patching ---------------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._restore.append((container, key, container[key]))
            container[key] = value
        else:
            self._restore.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self, wrappers):
        """Patch every lookup of the functions in ``wrappers`` (original -> wrapper).

        Returns self, usable as a context manager that uninstalls on exit.
        """
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        by_id = {id(orig): w for orig, w in wrappers.items()}

        def module_copy(module):
            twin = types.ModuleType(module.__name__, module.__doc__)
            twin.__dict__.update(module.__dict__)
            for kernel_module, attr in KERNELS:
                w = by_id.get(id(getattr(kernel_module, attr)))
                if kernel_module is module and w is not None:
                    setattr(twin, attr, w)
            return twin

        linalg_twin = module_copy(np.linalg)
        np_twin = module_copy(np)
        np_twin.linalg = linalg_twin
        replacements = {id(np): np_twin, id(np.linalg): linalg_twin,
                        id(sla): module_copy(sla), id(ThreadPoolExecutor): TracedExecutor}
        replacements.update(by_id)

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "starkprobe" and not mod_name.startswith("starkprobe."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._set(module, key, replacements[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in by_id:
                            self._set(value, k, by_id[id(v)])
        return self

    def uninstall(self):
        while self._restore:
            container, key, value = self._restore.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def public_functions(module):
    """The functions a layer module exports through ``__all__``."""
    return {name: getattr(module, name) for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name))}
