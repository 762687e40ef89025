"""Per-layer tracing from outside the solver.

Each layer is a public function of one `alwabp` module.  The tracer
replaces it at every name its callers look it up by (the module global a
caller reads, or the class attribute for a method) with a wrapper that
records a span: an id, the id of the enclosing span, the layer name and
start and end times.  Spans stay in memory until the benchmark writes
them out.  A few layers also count work, read from their arguments and
return values; those counts are deterministic for a given input.

Nothing in `src/` is changed; `restore()` puts every original back.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns

MOVE_KINDS = {"Shift": "shift", "Swap": "swap", "DoubleShift": "double_shift",
              "WorkerSwap": "worker_swap"}

# layer name -> (module attribute holding the owner, attribute) per call site
LAYER_SITES = {
    "cli.main": [("cli", "main")],
    "instance.load_instance": [("cli", "load_instance")],
    "instance.reverse": [("instance.Instance", "reverse")],
    "reports.write_csv": [("cli", "write_csv")],
    "bounds.compute_bounds": [("cli", "compute_bounds"),
                              ("hga", "compute_bounds")],
    "bounds.preprocess": [("constructive", "preprocess")],
    "constructive.search": [("constructive", "solve_lower_bound_search"),
                            ("cli", "solve_lower_bound_search"),
                            ("hga", "solve_lower_bound_search")],
    "localsearch.improve": [("hga", "improve")],
    "hga.decode": [("hga", "decode")],
    "hga.encode_rule": [("hga", "encode_rule")],
    "hga.crossover": [("hga", "crossover")],
    "hga.evolve": [("cli", "evolve"), ("hga", "evolve")],
}
LAYERS = tuple(LAYER_SITES)

# extra per-layer metrics: name -> unit
EXTRA_UNITS = {
    "reports.write_csv.bytes": "bytes",
    "bounds.preprocess.proofs": "count",
    "bounds.preprocess.cells_removed": "count",
    "constructive.search.no_assignment": "count",
    "constructive.search.cycles_tried": "count",
    "constructive.search.assemblies": "count",
    "constructive.search.success_ratio": "ratio",
    "constructive.search.assembly_us": "us",
    "localsearch.improve.useful_ratio": "ratio",
    "localsearch.improve.cycle_gain": "cycles",
    **{f"localsearch.moves.{kind}": "count" for kind in MOVE_KINDS.values()},
}


def _owner(modules, path):
    head, _, cls = path.partition(".")
    obj = getattr(modules, head)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and work counts for the layers in LAYER_SITES."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []             # [id, parent id, layer, start ns, end ns]
        self.stack = [0]            # 0 is the root: no enclosing layer
        self.counts = defaultdict(int)
        self.searches = []          # (inst, c_start, directions, sol, proofs)
        self.proved = set()         # cycles proved infeasible for the current cache
        self._undo = []
        self._before = {
            "constructive.search": self._before_search,
            "localsearch.improve": self._before_improve,
            "hga.evolve": self._before_evolve,
        }
        self._after = {
            "reports.write_csv": self._after_write_csv,
            "bounds.preprocess": self._after_preprocess,
            "constructive.search": self._after_search,
            "localsearch.improve": self._after_improve,
        }

    # -- installing ---------------------------------------------------------

    def install(self):
        for layer, sites in LAYER_SITES.items():
            for path, attr in sites:
                owner = _owner(self.modules, path)
                fn = getattr(owner, attr)
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self.stack
        before = self._before.get(layer)
        after = self._after.get(layer)

        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(args, kwargs)
            span = [len(spans) + 1, stack[-1], layer, perf_counter_ns(), 0]
            spans.append(span)
            stack.append(span[0])
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
                if after is not None:
                    after(args, kwargs, None if error else result, error)
            return result

        return traced

    def add_span(self, name, start, end):
        """Record a finished span that is not one of the layers."""
        self.spans.append([len(self.spans) + 1, self.stack[-1], name,
                           start, end])

    # -- per-layer work counts ----------------------------------------------

    # The search caches reductions per tentative cycle for the lifetime
    # of its `cache` argument: one evolve, or one call when none is given.
    # `proved` follows the same lifetime.
    def _before_evolve(self, args, kwargs):
        self.proved = set()
        return kwargs

    def _before_search(self, args, kwargs):
        if (args[6] if len(args) > 6 else kwargs.get("cache")) is None:
            self.proved = set()
        return kwargs

    def _after_write_csv(self, args, kwargs, result, error):
        if error is None:
            path = args[0] if args else kwargs["path"]
            self.counts["reports.write_csv.bytes"] += os.path.getsize(path)

    def _after_preprocess(self, args, kwargs, result, error):
        c = args[1] if len(args) > 1 else kwargs["c"]
        if error is not None:
            if isinstance(error, self.modules.bounds.CycleInfeasibleError):
                self.counts["bounds.preprocess.proofs"] += 1
                self.proved.add(c)
            return
        self.counts["bounds.preprocess.cells_removed"] += result[1]

    def _after_search(self, args, kwargs, result, error):
        if isinstance(error,
                      self.modules.constructive.NoFeasibleAssignmentError):
            self.counts["constructive.search.no_assignment"] += 1
        if error is not None:
            return
        names = ("inst", "source", "worker_rule", "direction", "c_start",
                 "use_preprocess", "cache")
        call = dict(zip(names, args), **kwargs)
        direction = call.get("direction", "forward")
        directions = 2 if direction == "both" else 1
        c_start = call.get("c_start")
        # only searches that reduce the instance can prove a cycle
        # infeasible; every cycle in [start, result] was reduced by this
        # search or by an earlier one sharing its cache.
        proofs = (frozenset(self.proved) if call.get("use_preprocess")
                  else frozenset())
        self.searches.append((call["inst"], c_start, directions, result,
                              proofs))

    def _before_improve(self, args, kwargs):
        if len(args) < 3 and kwargs.get("moves") is None:
            kwargs = dict(kwargs, moves=[])
        return kwargs

    def _after_improve(self, args, kwargs, result, error):
        if error is not None:
            return
        moves = args[2] if len(args) > 2 else kwargs["moves"]
        for move in moves:
            self.counts[f"localsearch.moves.{MOVE_KINDS[type(move).__name__]}"] += 1
        before = args[1] if len(args) > 1 else kwargs["sol"]
        self.counts["localsearch.improve.cycle_gain"] += before.cycle - result.cycle
        self.counts["localsearch.improve.useful"] += int(bool(moves))

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per layer: (calls, self seconds).  Self time is a span's
        duration minus the durations of its direct children."""
        child_ns = defaultdict(int)
        for sid, parent, _, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for sid, _, layer, start, end in self.spans:
            if layer not in LAYER_SITES:
                continue
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[sid]
        return {layer: (calls[layer], self_ns[layer] / 1e9) for layer in LAYERS}

    def search_work(self, lc1):
        """Cycles tried and assemblies of every traced search, derived
        from its start cycle, its resulting cycle, the cycles proved
        infeasible and the direction of the solution.  `lc1` gives the
        start of a search called without c_start."""
        tried = assemblies = 0
        for inst, c_start, directions, sol, proofs in self.searches:
            start = lc1(inst) if c_start is None else c_start
            final = max(sol.cycle, start)
            for c in range(start, final + 1):
                tried += 1
                if c in proofs:
                    continue
                last_forward = (c == final and directions == 2
                                and sol.direction == "forward")
                assemblies += 1 if last_forward else directions
        return tried, assemblies

    def metrics(self, wall_s, lc1):
        """Every per-layer metric: name -> (value, unit)."""
        out = {}
        times = self.self_times()
        for layer in LAYERS:
            calls, self_s = times[layer]
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.self_share"] = (self_s / wall_s, "share")
        for name, unit in EXTRA_UNITS.items():
            out[name] = (self.counts.get(name, 0), unit)

        tried, assemblies = self.search_work(lc1)
        searches = len(self.searches)
        search_self = times["constructive.search"][1]
        out["constructive.search.cycles_tried"] = (tried, "count")
        out["constructive.search.assemblies"] = (assemblies, "count")
        out["constructive.search.success_ratio"] = (
            searches / assemblies if assemblies else 0.0, "ratio")
        out["constructive.search.assembly_us"] = (
            search_self / assemblies * 1e6 if assemblies else 0.0, "us")
        improves = times["localsearch.improve"][0]
        out["localsearch.improve.useful_ratio"] = (
            self.counts["localsearch.improve.useful"] / improves
            if improves else 0.0, "ratio")
        return out

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
