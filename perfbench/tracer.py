"""Out-of-program tracing of the attnbof package.

The tracer wraps every public callable that an ``attnbof`` module defines:
module-level functions, public methods of its classes, and callable objects
(such as the ``numerics`` DiffOp instances) bound under a public name.  Each
callable is replaced in every module namespace that binds it, because that is
where its callers look it up: ``nbof`` imports ``softplus`` by name, while
``model`` reaches ``attention.att_csa`` through the module.  Discovery walks
the package, so a public function added later is traced with no change here.

Spanned callables record (name, start, end, parent) into flat in-memory
arrays; modules listed in ``count_only`` get a bare call counter instead,
which keeps the cost of very frequent small helpers low.  Self time of a span
is its duration minus the durations of its direct children (calls are
single-threaded, so children nest and never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from types import ModuleType
from typing import Callable

import numpy as np

# Computes a byte count for one call from (args, kwargs, result).
ByteProbe = Callable[[tuple, dict, object], int]


def _public(name: str) -> bool:
    return not name.startswith("_")


def package_modules(package: ModuleType) -> list[ModuleType]:
    """Every submodule of ``package`` except ``__main__``, in name order."""
    mods = []
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda i: i.name):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; spans and
    counts accumulate over every installed period."""

    def __init__(self, package: ModuleType, count_only: frozenset[str] = frozenset(),
                 byte_probes: dict[str, ByteProbe] | None = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.count_only = count_only
        self.byte_probes = byte_probes or {}
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.bytes: Counter[str] = Counter()

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable) -> Callable:
        sid = self._id(name)
        probe = self.byte_probes.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.span_name)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if probe is not None:
                self.bytes[name] += probe(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self, modules: list[ModuleType]):
        """(original object id -> traced name) plus the class methods to patch."""
        pkg = self.package.__name__
        objects: dict[int, tuple[str, object]] = {}
        methods: list[tuple[type, str, str]] = []
        for mod in modules:
            short = mod.__name__[len(pkg) + 1:]
            for attr, val in vars(mod).items():
                if not _public(attr):
                    continue
                if inspect.isclass(val):
                    if val.__module__ != mod.__name__ or issubclass(val, BaseException):
                        continue
                    for mname, member in vars(val).items():
                        if _public(mname) and (inspect.isfunction(member) or isinstance(
                                member, (staticmethod, classmethod))):
                            methods.append((val, mname, f"{short}.{attr}.{mname}"))
                elif inspect.isfunction(val):
                    if val.__module__ == mod.__name__:
                        objects[id(val)] = (f"{short}.{attr}", val)
                elif (callable(val) and not inspect.ismodule(val)
                      and not inspect.isbuiltin(val)
                      and type(val).__module__.startswith(pkg + ".")):
                    objects.setdefault(id(val), (f"{short}.{attr}", val))
        return objects, methods

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        return self.counted(name, fn) if layer in self.count_only else self.spanned(name, fn)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules(self.package)
        objects, methods = self._targets(modules)
        wrappers = {oid: self._wrap(name, obj) for oid, (name, obj) in objects.items()}
        for mod in modules + [self.package]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and objects[id(val)][1] is val:
                    self._patch(mod, attr, wrappers[id(val)])
        for cls, mname, name in methods:
            member = vars(cls)[mname]
            if isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(name, member.__func__))
            else:
                new = self._wrap(name, member)
            self._patch(cls, mname, new)
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ----------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        """Spans as columns; durations and self times in seconds."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "total": dur, "self": dur - child}

    def stats(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total_ms, self_ms, errors, bytes."""
        table = self.span_table()
        n = len(self.names)
        calls = np.bincount(table["name"], minlength=n)
        total = np.bincount(table["name"], weights=table["total"], minlength=n)
        own = np.bincount(table["name"], weights=table["self"], minlength=n)
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "total_ms": 1e3 * total[i],
                             "self_ms": 1e3 * own[i]}
        for name, c in self.counts.items():
            out[name] = {"calls": c}
        for name, e in self.errors.items():
            out.setdefault(name, {"calls": 0})["errors"] = e
        for name, b in self.bytes.items():
            out.setdefault(name, {"calls": 0})["bytes"] = b
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span, with its name table, as an .npz file."""
        table = self.span_table()
        np.savez(path, names=np.array(self.names), **table)
