"""Per-layer spans and counts, taken by rebinding the program's functions.

``install`` replaces each named public function in every module that
imports it, so calls made through a module's globals are caught too: the
split solvers' default sub-solver looks ``enumerate_extensions`` up at call
time, and the recursive SETAF sub-solver of ``routes`` looks itself up.

A span's self time is its duration minus the time its child spans cover.
The two sub-solve rows, ``bottom_ms`` and ``top_ms``, are the exception:
they hold the whole sub-solve, less the nested split solves inside it, so
they overlap the ``aba.*`` and ``semantics.*`` rows of the work they call.
Times and counts are per attempted operation, except ``top_assumptions``
(per top) and ``k`` (per quasi-splitting).
"""

from __future__ import annotations

import time
from collections import defaultdict

from splitkit import aba, finder, instantiate, io, semantics, setaf, split_aba, split_setaf

import routes

SPLIT_SIDES = ("split_aba", "split_setaf")

# name, unit; the order is the order of BENCHMARK.json
LAYER_METRICS = [
    ("io.parse_ms", "ms"),
    ("io.format_ms", "ms"),
    ("aba.supports_ms", "ms"),
    ("aba.support_sets", "count"),
    ("semantics.sweep_ms", "ms"),
    ("semantics.subsets", "count"),
    ("semantics.convert_ms", "ms"),
    ("semantics.sets_out", "count"),
    ("instantiate.to_setaf_ms", "ms"),
    ("finder.find_ms", "ms"),
    ("graphs.ideals", "count"),
    ("finder.truncated", "count"),
    ("graphs.maxflow_calls", "count"),
]
for _side in SPLIT_SIDES:
    LAYER_METRICS += [
        (f"{_side}.bottom_ms", "ms"),
        (f"{_side}.top_ms", "ms"),
        (f"{_side}.self_ms", "ms"),
        (f"{_side}.bottom_exts", "count"),
        (f"{_side}.top_assumptions", "count"),
        (f"{_side}.top_repeats", "count"),
        (f"{_side}.depth", "count"),
    ]
LAYER_METRICS.append(("split_aba.k", "count"))


class _Frame:
    __slots__ = ("name", "start", "child", "nested_split", "subs")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0  # time covered by child spans
        self.nested_split = 0.0  # time covered by child split solves
        self.subs = 0  # sub-solves started, for split frames


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.tops = defaultdict(int)
        self.quasi = 0
        self._stack: list[_Frame] = []
        self._seen_tables: list = []
        self._seen_tops: set = set()
        self._depth = 0
        self._max_depth = {side: 0 for side in SPLIT_SIDES}

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._seen_tables.clear()
        self._seen_tops.clear()
        self._max_depth = {side: 0 for side in SPLIT_SIDES}

    def end_op(self) -> None:
        self.ops += 1
        for side, depth in self._max_depth.items():
            self.totals[f"{side}.depth"] += depth

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, unit in LAYER_METRICS:
            value = self.totals.get(name, 0.0)
            if name.endswith(".top_assumptions"):
                value /= max(self.tops[name.split(".")[0]], 1)
            elif name == "split_aba.k":
                value /= max(self.quasi, 1)
            else:
                value /= max(self.ops, 1)
            if unit == "ms":
                value *= 1000.0
            out[name] = value
        return out

    # -- spans ----------------------------------------------------------------

    def _push(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> float:
        self._stack.pop()
        duration = time.perf_counter() - frame.start
        if self._stack:
            self._stack[-1].child += duration
        return duration

    def _span(self, metric: str, fn, count=None):
        def wrapper(*args, **kwargs):
            frame = self._push(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._pop(frame)
                self.totals[metric] += duration - frame.child
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counter(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, result)
            return result

        return wrapper

    def _add(self, name: str, value) -> None:
        self.totals[name] += value

    def _convert(self, fn):
        def wrapper(sets, *args, **kwargs):
            frame = self._push("semantics.convert_ms")
            try:
                items = list(sets)  # consumes the unmask generator inside the span
                result = fn(items, *args, **kwargs)
            finally:
                duration = self._pop(frame)
                self.totals["semantics.convert_ms"] += duration - frame.child
            self.totals["semantics.sets_out"] += len(items)
            return result

        return wrapper

    def _supports(self, fn):
        def count(args, table):
            if not any(t is table for t in self._seen_tables):  # built, not cached
                self._seen_tables.append(table)
                self.totals["aba.support_sets"] += sum(len(v) for v in table.values())

        return self._span("aba.supports_ms", fn, count)

    def _split_solve(self, side: str, fn):
        def wrapper(*args, **kwargs):
            self._depth += 1
            self._max_depth[side] = max(self._max_depth[side], self._depth)
            frame = self._push(side)
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                duration = self._pop(frame)
                self.totals[f"{side}.self_ms"] += duration - frame.child
                if self._stack:
                    self._stack[-1].nested_split += duration

        return wrapper

    def _sub_solve(self, side: str, fn):
        emit = io.emit_aba if side == "split_aba" else io.emit_setaf

        def wrapper(fw, sem, *args, **kwargs):
            owner = next((f for f in reversed(self._stack) if f.name in SPLIT_SIDES), None)
            if owner is None:  # a top-level call, not a sub-solve
                return fn(fw, sem, *args, **kwargs)
            owner.subs += 1
            bottom = owner.subs == 1
            if not bottom:
                paused = time.perf_counter()
                key = (side, emit(fw))
                self._add(f"{side}.top_repeats", key in self._seen_tops)
                self._seen_tops.add(key)
                size = len(fw.assumptions) if side == "split_aba" else fw.n_args
                self._add(f"{side}.top_assumptions", size)
                self.tops[side] += 1
                owner.child += time.perf_counter() - paused  # bookkeeping is not the layer's
            frame = self._push(f"{side}.sub")
            try:
                result = fn(fw, sem, *args, **kwargs)
            finally:
                duration = self._pop(frame)
                row = "bottom_ms" if bottom else "top_ms"
                self.totals[f"{side}.{row}"] += duration - frame.nested_split
            if bottom:
                self._add(f"{side}.bottom_exts", len(result))
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, setattr=setattr) -> None:
        """Rebind the program's functions; pass ``monkeypatch.setattr`` to undo it later."""

        def rebind(modules, name, make):
            original = getattr(modules[0], name)
            wrapped = make(original)
            for module in modules:
                setattr(module, name, wrapped)

        rebind([io], "parse_aba", lambda f: self._span("io.parse_ms", f))
        rebind([io], "parse_setaf", lambda f: self._span("io.parse_ms", f))
        rebind([io], "format_extensions", lambda f: self._span("io.format_ms", f))
        rebind([aba, split_aba, instantiate], "minimal_supports", self._supports)
        rebind([aba, split_aba, instantiate], "all_supports", self._supports)
        rebind([semantics, aba, setaf], "compute_families", lambda f: self._span(
            "semantics.sweep_ms", f, lambda args, _: self._add("semantics.subsets", 1 << args[0])))
        rebind([semantics, aba, setaf, io, split_aba, split_setaf], "canonical_sets", self._convert)
        rebind([instantiate], "aba_to_setaf", lambda f: self._span("instantiate.to_setaf_ms", f))
        for name in ("find_balanced_splitting", "find_setaf_splitting"):
            rebind([finder], name, lambda f: self._span("finder.find_ms", f))

        def count_quasi(args, q):
            self.quasi += 1
            self._add("split_aba.k", q.k)

        rebind([finder], "find_quasi_splitting",
               lambda f: self._span("finder.find_ms", f, count_quasi))

        def count_ideals(args, ideals):
            self._add("graphs.ideals", len(ideals))
            self._add("finder.truncated", len(ideals) == finder.IDEAL_LIMIT)

        rebind([finder], "order_ideals", lambda f: self._counter(f, count_ideals))
        rebind([finder], "max_flow",
               lambda f: self._counter(f, lambda args, _: self._add("graphs.maxflow_calls", 1)))
        for cls in (split_aba.AbaSplitting, split_aba.QuasiSplitting):
            setattr(cls, "solve", self._split_solve("split_aba", cls.solve))
        setattr(split_setaf.SetafSplitting, "solve",
                self._split_solve("split_setaf", split_setaf.SetafSplitting.solve))
        rebind([split_aba], "enumerate_extensions", lambda f: self._sub_solve("split_aba", f))
        rebind([split_setaf], "enumerate_extensions", lambda f: self._sub_solve("split_setaf", f))
        rebind([routes], "_recursive", lambda f: self._sub_solve("split_setaf", f))
