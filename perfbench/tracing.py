"""Spans around calls into silt's public functions, recorded from outside.

The tracer swaps each target function or method for a wrapper that records
one span per call: target name, start, end, the enclosing span, and whether
the call is the outermost active call of that target.  Module-level
functions are replaced under every name that binds them in a loaded
``silt`` module, so ``from .algebra import build_algebra`` in another module
is traced too.  Nothing under ``src/silt`` changes; the wrappers live only in
the process that installs them.

Spans stay in flat typed arrays while the workload runs and are written out
once, at the end.  Self time is a span's duration minus the durations of its
direct children; inclusive time sums only outermost calls of a name, so
nested calls of one function are not counted twice.

A few targets also feed counters from their arguments and results: the
cell count of ``rref`` inputs, accepted mutations, distinct cache keys of
``hom`` and ``rigid``, registry inserts and sizes, and exploration waves.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (metric prefix, silt submodule, attribute path of the function or method)
TARGETS = (
    ("algebra.build_algebra", "algebra", "build_algebra"),
    ("exactmat.rref", "exactmat", "rref"),
    ("exactmat.solve_right", "exactmat", "solve_right"),
    ("exactmat.kernel_basis", "exactmat", "kernel_basis"),
    ("exactmat.rank", "exactmat", "rank"),
    ("exactmat.matmul", "exactmat", "matmul"),
    ("repmod.RepMap", "repmod", "RepMap.__init__"),
    ("repmod.hom_basis", "repmod", "hom_basis"),
    ("repmod.compose", "repmod", "compose"),
    ("repmod.cokernel", "repmod", "cokernel"),
    ("repmod.kernel", "repmod", "kernel"),
    ("repmod.min_projective_presentation", "repmod", "min_projective_presentation"),
    ("repmod.direct_summand_split", "repmod", "direct_summand_split"),
    ("repmod.is_isomorphic", "repmod", "is_isomorphic"),
    ("twoterm.bongartz_completion", "twoterm", "bongartz_completion"),
    ("twoterm.co_bongartz_completion", "twoterm", "co_bongartz_completion"),
    ("twoterm.minimality_reduce", "twoterm", "minimality_reduce"),
    ("twoterm.hom_shift_vanishes", "twoterm", "hom_shift_vanishes"),
    ("twoterm.g_vector", "twoterm", "g_vector"),
    ("silting.mutate_left", "silting", "SiltingWorkspace.mutate_left"),
    ("silting.validate_silting_pair", "silting", "SiltingWorkspace.validate_silting_pair"),
    ("silting.left_minimal_approximation", "silting",
     "SiltingWorkspace.left_minimal_approximation"),
    ("silting.pair_leq", "silting", "SiltingWorkspace.pair_leq"),
    ("silting.hom", "silting", "SiltingWorkspace.hom"),
    ("silting.rigid", "silting", "SiltingWorkspace.rigid"),
    ("silting.pair_of", "silting", "SiltingWorkspace.pair_of"),
    ("silting.Registry.get_or_insert", "silting", "Registry.get_or_insert"),
    ("silting.Registry.split", "silting", "Registry.split"),
    ("explorer.explore", "explorer", "explore"),
    ("explorer.poset_relations", "explorer", "poset_relations"),
    ("explorer.cover_relations", "explorer", "cover_relations"),
    ("explorer.hasse_check", "explorer", "hasse_check"),
    ("explorer.to_json", "explorer", "to_json"),
    ("orders.poset_isomorphic", "orders", "poset_isomorphic"),
    ("orders.assemble_tors_hasse", "orders", "assemble_tors_hasse"),
    ("orders.classify_sincere", "orders", "classify_sincere"),
)

COUNTERS = (
    ("exactmat.rref.cells", "count"),
    ("silting.mutate_left.accept_ratio", "ratio"),
    ("silting.hom.hit_ratio", "ratio"),
    ("silting.rigid.hit_ratio", "ratio"),
    ("silting.Registry.insert_ratio", "ratio"),
    ("silting.Registry.size", "count"),
    ("explorer.waves", "count"),
)

SUMMARY = (
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for prefix, _, _ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.incl_s"] = "s"
    units.update(COUNTERS)
    units.update(SUMMARY)
    return units


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _hit_ratio(distinct_keys: int, calls: int) -> float:
    """Share of calls answered from the cache: 1 - distinct keys / calls."""
    return 1.0 - distinct_keys / calls if calls else 0.0


class Tracer:
    """Owns the span arrays and the counters.

    The patched attributes are never restored: every traced iteration runs
    in its own process, which exits once it has written its trace.
    """

    def __init__(self):
        self.names = [prefix for prefix, _, _ in TARGETS]
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._outer = array("b")
        self._stack = [-1]
        self._active = [0] * len(TARGETS)
        self.rref_cells = 0
        self.mutations_accepted = 0
        self.hom_keys: set = set()
        self.rigid_keys: set = set()
        self.registry_ids: set = set()
        self.registries: dict[int, object] = {}
        self.waves = 0

    # ---- installing ---------------------------------------------------------

    def install(self):
        observers = {
            "exactmat.rref": self._see_rref,
            "silting.mutate_left": self._see_mutation,
            "silting.hom": self._see_hom,
            "silting.rigid": self._see_rigid,
            "silting.Registry.get_or_insert": self._see_insert,
            "explorer.explore": self._see_explore,
        }
        silt_modules = [m for k, m in sys.modules.items()
                        if k == "silt" or k.startswith("silt.")]
        for nid, (prefix, modname, attr) in enumerate(TARGETS):
            module = sys.modules[f"silt.{modname}"]
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(original, nid, observers.get(prefix)))
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(original, nid, observers.get(prefix))
            for m in silt_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, fn, nid: int, observe):
        names, starts, ends = self._name, self._start, self._end
        parents, outer, stack, active = self._parent, self._outer, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            depth = active[nid]
            active[nid] = depth + 1
            names.append(nid)
            parents.append(stack[-1])
            outer.append(depth == 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[nid] = depth
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # ---- counters -------------------------------------------------------------

    def _see_rref(self, args, result):
        shape = args[0].shape
        self.rref_cells += int(shape[0]) * int(shape[1])

    def _see_mutation(self, args, result):
        self.mutations_accepted += result is not None

    def _see_hom(self, args, result):
        self.hom_keys.add((id(args[0]), args[1], args[2]))

    def _see_rigid(self, args, result):
        self.rigid_keys.add((id(args[0]), args[1], args[2]))

    def _see_insert(self, args, result):
        reg = args[0]
        self.registries[id(reg)] = reg
        self.registry_ids.add((id(reg), result))

    def _see_explore(self, args, result):
        self.waves += result.stats["max_depth"]

    # ---- results ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).astype(np.int64),
            "outer": np.frombuffer(self._outer, dtype=np.int8).astype(bool),
        }

    def summary(self, work_start: float, wall_s: float) -> dict[str, float]:
        """Per-target calls, self and inclusive time, plus counters.

        ``trace.self_sum_s`` adds the self times of every span that started
        after ``work_start``; it equals the summed duration of the top-level
        spans, the blocking steps of the workload.
        """
        a = self.arrays()
        k = len(TARGETS)
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_t = dur - covered
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_t, minlength=k)
        outer = a["outer"]
        incl_s = np.bincount(a["name"][outer], weights=dur[outer], minlength=k)
        out: dict[str, float] = {}
        for nid, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = int(calls[nid])
            out[f"{prefix}.self_s"] = float(self_s[nid])
            out[f"{prefix}.incl_s"] = float(incl_s[nid])
        mut = out["silting.mutate_left.calls"]
        ins = out["silting.Registry.get_or_insert.calls"]
        out["exactmat.rref.cells"] = self.rref_cells
        out["silting.mutate_left.accept_ratio"] = _ratio(self.mutations_accepted, mut)
        out["silting.hom.hit_ratio"] = _hit_ratio(len(self.hom_keys),
                                                  out["silting.hom.calls"])
        out["silting.rigid.hit_ratio"] = _hit_ratio(len(self.rigid_keys),
                                                    out["silting.rigid.calls"])
        out["silting.Registry.insert_ratio"] = _ratio(len(self.registry_ids), ins)
        out["silting.Registry.size"] = sum(len(r) for r in self.registries.values())
        out["explorer.waves"] = self.waves
        in_work = a["start"] >= work_start
        out["trace.spans"] = len(dur)
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = float(self_t[in_work].sum())
        return out

    def write(self, path, run_id: str):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), run_id=np.array(run_id),
                 **self.arrays())
