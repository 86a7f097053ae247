"""Per-layer tracing from outside the program.

Each wrapper is patched in where the caller looks the name up (for example
``perifold.engine.find_fold``, which the reduction loop calls), times the
call and counts it.  Self time is a call's duration minus the time of the
wrapped calls made inside it.  `restore` puts every original back, so the
end-to-end runs see the program untouched.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> the (module, attribute) sites it is looked up from
LAYERS = {
    "weights.map_perimeter": [("engine", "map_perimeter")],
    "maps.find_fold": [("engine", "find_fold"), ("maps", "find_fold")],
    "maps.apply_fold": [("engine", "apply_fold")],
    "maps.repair_packing": [("engine", "repair_packing")],
    "maps.remove_redundant": [("engine", "remove_redundant")],
    "maps.fiber_product": [("subgroups", "fiber_product")],
    "maps.restrict_to_component": [("subgroups", "restrict_to_component")],
    "engine.find_attachment": [("engine", "find_attachment")],
    "engine.attach_packet": [("engine", "attach_packet")],
    "engine.enumerate_candidates": [("engine", "enumerate_candidates")],
    "engine.reduce_map": [("subgroups", "reduce_map")],
    "engine.extract_presentation": [("subgroups", "extract_presentation")],
    "criteria.find_certificate": [("subgroups", "find_certificate")],
    "criteria.check_sc_weight": [("criteria", "check_sc_weight"),
                                 ("subgroups", "check_sc_weight")],
    "complexes.compute_pieces": [("criteria", "compute_pieces"),
                                 ("complexes", "compute_pieces")],
    "subgroups.member": [("subgroups", "member")],
    "subgroups.subgroup_presentation": [("subgroups", "subgroup_presentation")],
    "subgroups.intersect": [("subgroups", "intersect")],
    "cli.parse_input_file": [("cli", "parse_input_file")],
}

# layers whose result is None when the search found nothing
SEARCHES = {"maps.find_fold", "engine.find_attachment"}

STEP_KINDS = ("fold", "attach-complete", "attach-incomplete", "repair", "remove-redundant")


class Tracer:
    def __init__(self, pf):
        self.pf = pf
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.steps: Counter[str] = Counter()
        self.maps_built = 0
        self._stack: list[float] = []  # time of wrapped children, per open call
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        search = name in SEARCHES
        tally_steps = name == "engine.reduce_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
            if search and result is not None:
                self.hits[name] += 1
            if tally_steps:
                self.steps.update(s.kind for s in result.trace.steps)
            return result

        return wrapper

    def install(self) -> None:
        for name, sites in LAYERS.items():
            for module_name, attr in sites:
                module = getattr(self.pf, module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the program no longer looks this name up there
                self._undo.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        comb_map = self.pf.maps.CombMap
        init = comb_map.__init__

        def counted_init(obj, *args, **kwargs):
            self.maps_built += 1
            init(obj, *args, **kwargs)

        self._undo.append((comb_map, "__init__", init))
        comb_map.__init__ = counted_init

    def restore(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3, "ms")
            if name in SEARCHES:
                n = self.calls[name]
                out[f"{name}.hit_ratio"] = (self.hits[name] / n if n else 0.0, "ratio")
        out["maps.CombMap.constructed"] = (self.maps_built, "count")
        for kind in STEP_KINDS:
            out["engine.steps." + kind.replace("-", "_")] = (self.steps[kind], "count")
        return out
