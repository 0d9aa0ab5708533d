"""Spans and counts recorded around calls into kernrec's modules.

The tracer wraps named callables from the outside; ``src/`` is not
modified.  A wrapped callable is rebound everywhere a ``kernrec``
module holds a reference to it (``from .solver import solve_cg`` in
``forward`` makes a second name for the same function), and every
binding is put back by ``Tracer.remove``.  A target that no longer
exists is recorded in ``Tracer.absent`` instead of raising, so the
benchmark keeps working when a later version folds or renames it.

Spans are kept in memory as ``(id, parent_id, name, start_ns, end_ns)``
and only written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

MARKER = "__kernrec_bench_wrapper__"


def _resolve(target: str):
    """(owner, attribute, raw value) for 'kernrec.mod.attr' or 'kernrec.mod.Class.attr'."""
    parts = target.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
    except ModuleNotFoundError:
        return None
    for name in parts[2:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Wraps callables, records spans and counts, then unwraps them."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap_function(self, name: str, fn, sample):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if sample is not None:
                key, value = sample(args, kwargs, result)
                tracer.samples[key].append(value)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def install(self, name: str, target: str, sample=None) -> bool:
        """Wrap ``target`` under span ``name``; False when the target is gone.

        ``sample(args, kwargs, result) -> (key, value)``, when given, runs
        after each call and appends ``value`` to ``samples[key]``.
        """
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap_function(name, raw.__func__, sample))
        elif callable(raw):
            wrapped = self._wrap_function(name, raw, sample)
        else:
            self.absent.append(target)
            return False
        self._bind(owner, attr, wrapped)
        if isinstance(owner, type):
            return True
        # module-level function: rebind every other kernrec name for it
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("kernrec"):
                continue
            for other, value in list(vars(module).items()):
                if value is raw:
                    self._bind(module, other, wrapped)
        return True

    def _bind(self, owner, attr: str, value) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                    "names": names,
                    "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
                    "samples": {k: len(v) for k, v in self.samples.items()},
                    "absent": self.absent,
                },
                fh,
                separators=(",", ":"),
            )


def leftover_wrappers() -> list[str]:
    """Names in any loaded kernrec module or class still bound to a wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("kernrec"):
            continue
        for attr, value in vars(module).items():
            if getattr(value, MARKER, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("kernrec"):
                for cattr, cvalue in vars(value).items():
                    func = getattr(cvalue, "__func__", cvalue)
                    if getattr(func, MARKER, False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found


def span_stats(spans):
    """Per name: calls, total seconds and self seconds (minus child spans)."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _name, start, end in spans:
        child_ns[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, _parent, name, start, end in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child_ns[sid]) * 1e-9
    return stats
