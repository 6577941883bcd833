"""Span tracing installed from outside the package, and per-layer metrics.

A wrapper goes around each public function listed in ``LAYERS``, in every
loaded ``limitset_lab`` module namespace (and module-level dict) that binds
it, because modules import functions by name: ``cli.cell_image`` and
``semiflow_cells.cell_image`` are separate bindings of one function.
Methods are wrapped on their class.  Spans are aggregated in memory by
(name, parent name); a span's self time is its duration minus the time its
child spans cover.  Generator functions are timed per resumption.

Leaf helpers in ``rationals`` and ``directed_sets`` and trivial accessors
(``check_set``, ``full_mask``, ``is_znn``, ``at``) stay unwrapped: they are
called too often to trace cheaply, and their time shows up in the caller's
self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "<root>"


@dataclass(frozen=True)
class Layer:
    module: str                 # module under ``limitset_lab``
    qualname: str               # ``func`` or ``Class.method``
    label: Optional[str] = None  # metric prefix when the default is too long
    # (counter name, f(args, kwargs, result) -> int) summed over calls
    counter: Optional[Tuple[str, Callable]] = None

    @property
    def name(self) -> str:
        return self.label or f"{self.module}.{self.qualname}"


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _cells_in(args, kwargs, result):
    return _arg(args, kwargs, 2, "cells").bit_count()


def _pairs(args, kwargs, result):
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    return (a & ~b).bit_count() * b.bit_count()


def _steps(args, kwargs, result):
    return result.preperiod + result.period


def _layers(module: str, names: str, **kw) -> List[Layer]:
    return [Layer(module, n, **kw) for n in names.split()]


LAYERS: List[Layer] = [
    Layer("semiflow_cells", "cellset_semidistance",
          counter=("semiflow_cells.cellset_semidistance.pairs", _pairs)),
    Layer("semiflow_cells", "cell_image",
          counter=("semiflow_cells.cell_image.cells_in", _cells_in)),
    Layer("semiflow_cells", "CellGrid.dilate"),
    Layer("semiflow_cells", "omega_limit_cells",
          counter=("semiflow_cells.omega_limit_cells.steps", _steps)),
    *_layers("pseudometric_core", "FinitePseudoMetric.__init__ "
             "FinitePseudoMetric.semidistance_masks "
             "FinitePseudoMetric.open_sets"),
    # the full name is longer than the 64 letters a metric name may have
    Layer("pseudometric_core", "FinitePseudoMetric.point_to_mask_distance",
          label="pseudometric_core.FinitePseudoMetric.point_to_mask_dist"),
    *_layers("setvalued_maps", "is_lsc_at lsc_via_semidistance is_usc_at image"),
    *_layers("finite_topology", "enumerate_spaces closure is_regular "
             "is_hausdorff FiniteSpace.minimal_open_superset"),
    *_layers("subset_nets", "SubsetNet.over_znn SubsetNet.over_finite "
             "SubsetNet.values limit_set converges_from_above "
             "sequential_limit_set semidistance_convergence_check "
             "is_limit_set_compact analyze"),
    *_layers("pseudometric_core", "point_set_distance semidistance "
             "kuratowski_limits"),
    *_layers("theoremlab", "suite_limit_set_characterization "
             "suite_kuratowski_equality suite_separation_containments "
             "suite_compactness_equivalences suite_pseudometrizable_equivalence "
             "suite_sequential_limits random_rule_net describe_net"),
    *_layers("jsonio", "net_from_json finite_space_from_json "
             "analysis_to_json dumps_canonical"),
    *_layers("cli", "run cmd_net cmd_space cmd_omega cmd_verify"),
]

# Layers each workload must reach; zero calls there is flagged.
# ``suite_sequential_limits`` and ``sequential_limit_set`` are not expected
# while the ``verify`` workload leaves that suite out (see workloads.py).
_VERIFY = ["theoremlab." + n for n in (
    "suite_limit_set_characterization suite_kuratowski_equality "
    "suite_separation_containments suite_compactness_equivalences "
    "suite_pseudometrizable_equivalence random_rule_net "
    "describe_net").split()] + [
    "finite_topology.enumerate_spaces", "finite_topology.closure",
    "finite_topology.is_regular", "finite_topology.is_hausdorff",
    "finite_topology.FiniteSpace.minimal_open_superset",
    "subset_nets.SubsetNet.over_znn", "subset_nets.SubsetNet.over_finite",
    "subset_nets.SubsetNet.values", "subset_nets.limit_set",
    "subset_nets.converges_from_above",
    "subset_nets.semidistance_convergence_check",
    "subset_nets.is_limit_set_compact", "pseudometric_core.point_set_distance",
    "pseudometric_core.semidistance", "pseudometric_core.kuratowski_limits",
    "cli.run", "cli.cmd_verify"]
EXPECTED: Dict[str, List[str]] = {
    "verify": _VERIFY,
    "omega": ["semiflow_cells.cellset_semidistance", "semiflow_cells.cell_image",
              "semiflow_cells.CellGrid.dilate", "semiflow_cells.omega_limit_cells",
              "cli.run", "cli.cmd_omega", "jsonio.dumps_canonical"],
    "semicontinuity": [
        "pseudometric_core.FinitePseudoMetric.__init__",
        "pseudometric_core.FinitePseudoMetric.semidistance_masks",
        "pseudometric_core.FinitePseudoMetric.point_to_mask_dist",
        "pseudometric_core.FinitePseudoMetric.open_sets",
        "setvalued_maps.is_lsc_at", "setvalued_maps.lsc_via_semidistance",
        "setvalued_maps.is_usc_at", "setvalued_maps.image"],
    "requests": [
        "semiflow_cells.cellset_semidistance", "semiflow_cells.cell_image",
        "semiflow_cells.omega_limit_cells", "finite_topology.closure",
        "finite_topology.is_regular", "finite_topology.is_hausdorff",
        "finite_topology.FiniteSpace.minimal_open_superset",
        "subset_nets.SubsetNet.over_znn", "subset_nets.SubsetNet.over_finite",
        "subset_nets.limit_set", "subset_nets.converges_from_above",
        "subset_nets.is_limit_set_compact", "subset_nets.analyze",
        "pseudometric_core.point_set_distance", "jsonio.net_from_json",
        "jsonio.finite_space_from_json", "jsonio.analysis_to_json",
        "jsonio.dumps_canonical", "cli.run", "cli.cmd_net", "cli.cmd_space",
        "cli.cmd_omega"],
}

COUNTERS = [layer.counter[0] for layer in LAYERS if layer.counter] + [
    "semiflow_cells.cell_image.redundant_calls"]
RATIOS = ["setvalued_maps.lsc_cost_ratio", "theoremlab.redraw_ratio",
          "theoremlab.exhibit_kept_ratio", "trace.overhead_ratio"]


def per_layer_metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer in LAYERS:
        out += [(layer.name + ".calls", "count"), (layer.name + ".self_s", "s")]
    return out + [(c, "count") for c in COUNTERS] + [(r, "ratio") for r in RATIOS]


class Tracer:
    """In-memory span aggregation keyed by (name, parent name)."""

    def __init__(self):
        self.stack = [[ROOT, 0.0]]      # frames: [name, child seconds]
        self.spans: Dict[Tuple[str, str], list] = {}  # calls, total, self, raised
        self.calls: Dict[str, int] = {}  # generator creations
        self.counters: Dict[str, int] = {c: 0 for c in COUNTERS}
        self.items: List[tuple] = []     # top-level spans: (id, kind, seconds)
        self.missing: List[str] = []

    def _close(self, frame, parent, start, raised):
        dur = time.perf_counter() - start
        self.stack.pop()
        parent[1] += dur
        rec = self.spans.get((frame[0], parent[0]))
        if rec is None:
            rec = self.spans[(frame[0], parent[0])] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        rec[3] += raised
        return dur

    def span(self, name: str, fn: Callable, counter=None) -> Callable:
        stack, close, clock = self.stack, self._close, time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, parent, start, 1)
                raise
            close(frame, parent, start, 0)
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result
        return functools.wraps(fn)(traced)

    def generator_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span per resumption."""
        stack, close, clock, calls = self.stack, self._close, time.perf_counter, self.calls

        def resume(gen):
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    value = next(gen)
                except StopIteration:
                    close(frame, parent, start, 0)
                    return
                except BaseException:
                    close(frame, parent, start, 1)
                    raise
                close(frame, parent, start, 0)
                yield value

        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return resume(fn(*args, **kwargs))
        return functools.wraps(fn)(traced)

    def item(self, item_id: int, kind: str, fn: Callable):
        """Run one benchmark item as a top-level span carrying ``item_id``."""
        parent = self.stack[-1]
        frame = [kind, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.items.append((item_id, kind, self._close(frame, parent, start, 0)))

    # -- installation ------------------------------------------------------------

    def install(self, package: str = "limitset_lab"):
        """Wrap every layer; names that no longer exist are recorded as missing."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            if not self._install_one(layer, sys.modules.get(f"{package}.{layer.module}"),
                                     modules):
                self.missing.append(layer.name)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self.generator_span(layer.name, fn)
        return self.span(layer.name, fn, layer.counter)

    def _install_one(self, layer: Layer, module, modules) -> bool:
        if module is None:
            return False
        owner_name, _, attr = layer.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(layer, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(owner, attr, self._wrap(layer, raw))
            else:
                return False
            return True
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            return False
        wrapped = self._wrap(layer, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapped
        return True

    # -- results -------------------------------------------------------------------

    def totals(self) -> Dict[str, list]:
        """Per name: [calls, total seconds, self seconds, raised]."""
        out: Dict[str, list] = {}
        for (name, _), rec in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += rec[i]
        for name, n in self.calls.items():  # generators: calls, not resumptions
            out.setdefault(name, [0, 0.0, 0.0, 0])[0] = n
        return out

    def layer_metrics(self, overhead_ratio: float, extras: dict) -> Dict[str, float]:
        totals = self.totals()
        zero = [0, 0.0, 0.0, 0]
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            calls, _, self_s, _ = totals.get(layer.name, zero)
            metrics[layer.name + ".calls"] = calls
            metrics[layer.name + ".self_s"] = self_s
        metrics.update(self.counters)
        metrics["semiflow_cells.cell_image.redundant_calls"] = self.spans.get(
            ("semiflow_cells.cell_image", "cli.cmd_omega"), zero)[0]
        via = totals.get("setvalued_maps.lsc_via_semidistance", zero)[1]
        oracle = totals.get("setvalued_maps.is_lsc_at", zero)[1]
        metrics["setvalued_maps.lsc_cost_ratio"] = via / oracle if oracle else 0.0
        draws = self.spans.get(("subset_nets.SubsetNet.over_znn",
                                "theoremlab.random_rule_net"), zero)
        metrics["theoremlab.redraw_ratio"] = draws[3] / draws[0] if draws[0] else 0.0
        metrics["theoremlab.exhibit_kept_ratio"] = extras.get(
            "theoremlab.exhibit_kept_ratio", 0.0)
        metrics["trace.overhead_ratio"] = overhead_ratio
        return metrics

    def zero_call_flags(self, workload: str) -> List[str]:
        totals = self.totals()
        return [name for name in EXPECTED.get(workload, [])
                if totals.get(name, [0])[0] == 0]

    def span_table(self) -> List[dict]:
        rows = [{"name": n, "parent": p, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "raised": r[3]}
                for (n, p), r in self.spans.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
