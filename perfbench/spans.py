"""Span recorder for the traced benchmark run.

The recorder wraps chosen callables of the specnet modules from outside:
each call becomes a span (name, parent span, start, end), kept in flat
arrays in memory and written out once when the run ends.  Hooks add named
counts at the same boundaries (strands built, samples traced, root
collisions).  Self time, call counts and the parent/child ratios are all
computed afterwards from the spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute path, span name).  A function is also re-bound wherever
# another specnet module imported it by name (specnet.cli binds
# build_forest_strands, augmentation, network_to_json, parse_weave and
# bend_weave; soliton_bps binds solve_rational).  A method is wrapped on its
# class, which covers every binding of the class.
TARGETS = [
    ("specnet.cli", "main", "cli.main"),
    ("specnet.weave", "parse_weave", "weave.parse_bend"),
    ("specnet.weave", "bend_weave", "weave.parse_bend"),
    ("specnet.forest", "build_forest_strands", "forest.build"),
    ("specnet.soliton_bps", "HomologyEngine.__init__", "soliton_bps.engine_init"),
    ("specnet.soliton_bps", "HomologyEngine.tree_chain", "soliton_bps.tree_chain"),
    ("specnet.soliton_bps", "HomologyEngine.class_of_chain", "soliton_bps.class_of_chain"),
    ("specnet.soliton_bps", "SolitonCatalog.bps_table", "soliton_bps.bps_table"),
    ("specnet.laurent", "solve_rational", "laurent.solve_rational"),
    ("specnet.nonabel", "augmentation", "nonabel.augmentation"),
    ("specnet.nonabel", "homotopic_pair", "nonabel.homotopic_pair"),
    ("specnet.nonabel", "Transport.transport_path", "nonabel.transport_path"),
    ("specnet.nonabel", "Transport.transport_free", "nonabel.transport_free"),
    ("specnet.nonabel", "Transport.transport_short", "nonabel.transport_short"),
    ("specnet.nonabel", "Transport.soliton_coefficient", "nonabel.soliton_coefficient"),
    ("specnet.nonabel", "Transport.matmul", "nonabel.matmul"),
    ("specnet.nonabel", "Transport.branch_monodromy", "nonabel.monodromy"),
    ("specnet.nonabel", "Transport.joint_monodromy", "nonabel.monodromy"),
    ("specnet.nonabel", "LocalSystemRank1.evaluate", "nonabel.local_system_eval"),
    ("specnet.network", "network_to_json", "network.to_json"),
    ("specnet.wkb", "SpectralCurve.__init__", "wkb.curve_parse"),
    ("specnet.wkb", "branch_points", "wkb.branch_points"),
    ("specnet.wkb", "trace_wall", "wkb.trace_wall"),
    ("specnet.wkb", "sheets_at", "wkb.sheets_at"),
    ("specnet.wkb", "TracedWall.pair_values_at", "wkb.pair_values_at"),
    ("specnet.wkb", "build_wkb_network", "wkb.network"),
]


def _count_strands(rec, builder):
    rec.counts["forest.strands"] += len(builder.strands)


def _count_samples(rec, wall):
    rec.counts["wkb.samples"] += len(wall.points)


RESULT_HOOKS = {"forest.build": _count_strands, "wkb.trace_wall": _count_samples}
ERROR_COUNTS = {"wkb.sheets_at": ("RootCollision", "wkb.root_collisions")}


class Recorder:
    """Spans with parent ids, in start order, plus named counts."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.parent = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.labels = {}
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # ----- recording -----
    def _open(self, name):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.parent)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(index)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, label=None):
        sid = self._open(name)
        if label is not None:
            self.labels[sid] = label
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        on_result = RESULT_HOOKS.get(name)
        on_error = ERROR_COUNTS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error and type(err).__name__ == on_error[0]:
                    rec.counts[on_error[1]] += 1
                raise
            finally:
                rec._close(sid)
            if on_result:
                on_result(rec, result)
            return result

        return wrapper

    # ----- installing the wrappers -----
    def install(self):
        """Wrap every target and every by-name binding of it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "specnet" or key.startswith("specnet.")]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- analysis -----
    def analyse(self):
        """Self time and calls per span name, and per-op rows.

        A span's self time is its duration minus the durations of its
        direct children; children never outlive their parent.
        """
        n = len(self.parent)
        child_time = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        self_s = Counter()
        calls = Counter()
        per_root = {}
        for i in range(n):
            name = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child_time[i]
            self_s[name] += own
            calls[name] += 1
            r = root[i]
            if r in self.labels and r != i:
                row = per_root.setdefault(r, (Counter(), Counter()))
                row[0][name] += own
                row[1][name] += 1
        return self_s, calls, per_root

    def children_named(self, parent_name, child_name):
        """For every span called ``parent_name``: its direct children
        called ``child_name``, as a list of counts."""
        pidx = self._name_index.get(parent_name)
        cidx = self._name_index.get(child_name)
        found = {i: 0 for i in range(len(self.parent)) if self.name[i] == pidx}
        for i in range(len(self.parent)):
            p = self.parent[i]
            if self.name[i] == cidx and p in found:
                found[p] += 1
        return list(found.values())

    def write(self, path):
        doc = {"names": self.names, "parent": self.parent.tolist(),
               "name": self.name.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(),
               "labels": {str(k): v for k, v in self.labels.items()},
               "counts": dict(self.counts)}
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle)
