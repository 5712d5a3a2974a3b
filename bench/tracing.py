"""Per-layer tracing from outside the program.

Each public function in ``LAYERS`` is replaced, in every ``dcverify.*``
module that binds it, by a wrapper that records a span (name, start, end,
parent) and the layer's counts.  Modules import names into their own
namespace (``scenarios`` and ``cli`` hold their own ``check_cone_convex``,
``multipliers`` holds ``check_convexlike``), so every alias is rebound, and
methods and classmethods are replaced on their classes.  Self time is span
time minus the time of its child spans.

``cones.dual_cone`` is not traced: no command reaches it, so its figures
would read zero on every workload.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (layer name, module, attribute path, inclusive, extra counts)
LAYERS = (
    ("problemfile.parse_problem", "dcverify.problemfile", "parse_problem", False, ()),
    ("cones.from_generators", "dcverify.cones", "PolyhedralCone.from_generators", False, ()),
    ("cones.from_halfspaces", "dcverify.cones", "PolyhedralCone.from_halfspaces", False, ()),
    ("cones.cone_contains", "dcverify.cones", "cone_contains", False, ()),
    ("problem.grid_points", "dcverify.problem", "GridSpec.points", False, ("points",)),
    ("problem.evaluate", "dcverify.problem", "VectorMap.evaluate", False, ()),
    ("problem.feasible_contains", "dcverify.problem", "feasible_contains", False, ()),
    ("problem.check_cone_convex", "dcverify.problem", "check_cone_convex", False, ()),
    ("problem.check_convexlike", "dcverify.problem", "check_convexlike", False, ()),
    ("subdiff.eps_subdiff_contains", "dcverify.subdiff", "eps_subdiff_contains", False, ()),
    ("subdiff.strong_subdiff_contains", "dcverify.subdiff", "strong_subdiff_contains", False, ()),
    ("dissipativity.check_approx_pseudo_dissipative", "dcverify.dissipativity",
     "check_approx_pseudo_dissipative", False, ()),
    ("pareto.check_eps_weak_local_min", "dcverify.pareto", "check_eps_weak_local_min", False, ()),
    ("pareto.check_eps_proper_local_min", "dcverify.pareto", "check_eps_proper_local_min",
     False, ()),
    ("multipliers.solve_feasibility", "dcverify.multipliers", "solve_feasibility", False,
     ("rows", "infeasible")),
    ("multipliers.alternative_system", "dcverify.multipliers", "alternative_system", False, ()),
    ("multipliers.sufficient_condition", "dcverify.multipliers", "sufficient_condition",
     False, ()),
    ("multipliers.necessary_condition", "dcverify.multipliers", "necessary_condition",
     False, ()),
    ("report.emit_report", "dcverify.report", "emit_report", False, ("bytes",)),
    ("cli.main", "dcverify.cli", "main", True, ()),
    ("scenarios.run_scenario", "dcverify.scenarios", "run_scenario", True, ()),
)


def _counts(layer: str, args, result) -> dict:
    if layer == "problem.grid_points":
        return {"points": len(result)}
    if layer == "multipliers.solve_feasibility":
        return {"rows": len(args[0].constraints), "infeasible": int(not result.feasible)}
    if layer == "report.emit_report":
        return {"bytes": len(result)}
    return {}


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; totals
    accumulate in ``stats``, spans in ``spans`` while ``recording``."""

    def __init__(self) -> None:
        self.stats = {name: {"calls": 0, "self_s": 0.0, "s": 0.0,
                             **{k: 0 for k in extra}}
                      for name, _, _, _, extra in LAYERS}
        self.spans: list[tuple[str, float, float, int]] = []
        self.recording = False
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stack, stats, spans = self._stack, self.stats, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = -1
            if self.recording:
                index = len(spans)
                spans.append((layer, 0.0, 0.0, parent))
            frame = [layer, perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                entry = stats[layer]
                entry["calls"] += 1
                entry["s"] += duration
                entry["self_s"] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index] = (layer, frame[1], end, parent)
            for key, value in _counts(layer, args, result).items():
                entry[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dcverify" or name.startswith("dcverify."))]
        for layer, module, path, _, _ in LAYERS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(layer, original.__func__))
                else:
                    replacement = self._wrap(layer, original)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(owner, path)
            replacement = self._wrap(layer, original)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, alias, original))
                        setattr(m, alias, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {name: dict(entry) for name, entry in self.stats.items()}


def per_layer_metrics(total: dict, passes: int) -> dict:
    """Per-pass figures: counts and seconds divided by the traced passes."""
    metrics = {}
    for name, _, _, inclusive, extra in LAYERS:
        entry = total[name]
        metrics[f"{name}.calls"] = (entry["calls"] / passes, "count")
        if inclusive:
            metrics[f"{name}.s"] = (entry["s"] / passes, "s")
        else:
            metrics[f"{name}.self_s"] = (entry["self_s"] / passes, "s")
        for key in extra:
            metrics[f"{name}.{key}"] = (entry[key] / passes, "count" if key != "bytes" else "bytes")
    return metrics
