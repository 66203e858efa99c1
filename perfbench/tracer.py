"""In-memory span tracer that wraps the package's public functions.

Each wrapped call records one span (name, start, end, parent). A layer's
self time is its span minus the spans of its direct children. Modules
import names directly (`from .pooling import pool_bev_batch`), and the CLI
dispatches through a dict, so `install` replaces the function object
everywhere the package looks it up: in every module namespace and in
every module-level dict that holds it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# Private functions worth a span of their own, under the name they get.
EXTRA = {"nce._adam_step": "nce.adam_step"}

# Leaf helpers called several times inside every single IoU or label line:
# a wrapper would cost about as much as they do, and their time belongs to
# the IoU or parse call that uses them.
SKIP = {"geometry.to_bev", "geometry.bev_corners", "geometry.polygon_area",
        "geometry.clip_convex", "kittiio.wrap_angle"}

# Work counts taken from a call's result, keyed by span name.
COUNTERS = {
    "energynet.forward_batch": lambda r: {"energynet.forward_batch.rows": len(r[0])},
    "pooling.pool_bev_batch": lambda r: {"pooling.pool_bev_batch.boxes": len(r[0])},
    "featuregrid.bilinear_many": lambda r: {"featuregrid.query_points": len(r)},
    "featuregrid.bilinear_grad_many": lambda r: {"featuregrid.query_points": len(r[0])},
    "kittiio.parse_label_file": lambda r: {"kittiio.parse_label_file.lines": len(r)},
    "refine.refine_one": lambda r: {"refine.accepted": sum(row.accepted for row in r[1]),
                                    "refine.proposals": len(r[1])},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list = []  # (namespace, key, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(i)
            self.end.append(0.0)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if counter is not None:
                for key, n in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(n)
            return result

        return traced

    def install(self, modules):
        """Wrap the public functions defined in `modules` (plus EXTRA)."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = EXTRA.get(f"{short}.{attr}")
                if name is None and not attr.startswith("_") and f"{short}.{attr}" not in SKIP:
                    name = f"{short}.{attr}"
                if name is not None:
                    wrappers[obj] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patched.append((obj, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def arrays(self):
        """Spans as numpy arrays: name index, parent, start, end (seconds)."""
        return (np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name_idx, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_idx=name_idx,
                            parent=parent, start=start, end=end)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and all durations."""
        name_idx, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_idx == nid
            out[name] = dict(calls=int(mask.sum()), total_s=float(dur[mask].sum()),
                             self_s=float(self_time[mask].sum()), durations=dur[mask])
        parent_name = np.where(has_parent, name_idx[np.maximum(parent, 0)], -1)
        out["_children"] = {
            (self.names[p], self.names[c]): int(np.sum((parent_name == p) & (name_idx == c)))
            for p in set(parent_name[has_parent].tolist())
            for c in set(name_idx[parent_name == p].tolist())
        }
        return out
