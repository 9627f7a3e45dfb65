"""Outside-in per-layer tracing for the repo benchmark.

Spans are recorded by wrapping each layer's public entry points at the
bindings their callers look them up through (``parse`` is imported
separately into ``repro.sqlengine.database`` and ``repro.fed.decomposer``,
so both bindings are wrapped).  Nothing under ``src/`` is edited:
:func:`install` swaps module and class attributes and the returned
tracer's ``restore()`` puts every original back.

A span is ``[layer, start, end, parent index, seconds covered by
children]``.  Calls on one thread nest strictly, so a span's self time
is its duration minus its direct children's durations, and the self
times of all spans sum to the time covered by the outermost spans.
Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer that reports ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS: Tuple[str, ...] = (
    "sqlengine.parser",
    "sqlengine.logical",
    "sqlengine.optimizer",
    "fed.decomposer",
    "wrappers.meta.compile",
    "fed.global_optimizer",
    "fed.plan_cache",
    "core.routing",
    "wrappers.meta.execute",
    "sim.server",
    "sqlengine.executor.fragment",
    "sqlengine.executor.merge",
    "fed.merge",
    "sqlengine.dml",
    "sqlengine.storage",
    "sim.sched",
    "fed.admission",
    "fed.hedging",
    "fed.integrator",
    "harness.deployment",
)

#: Layers whose self time is compile work (decompose, explain at every
#: candidate server, calibrated global plan enumeration, cache lookup).
COMPILE_LAYERS: Tuple[str, ...] = (
    "sqlengine.parser",
    "sqlengine.logical",
    "sqlengine.optimizer",
    "fed.decomposer",
    "wrappers.meta.compile",
    "fed.global_optimizer",
    "fed.plan_cache",
)


class Recorder:
    """In-memory span store plus counters bumped at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, self.clock(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = self.clock()
        span = self.spans[index]
        span[2] = now
        if self._stack.pop() != index:
            raise RuntimeError("spans must nest")
        if span[3] >= 0:
            self.spans[span[3]][4] += now - span[1]

    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for layer, start, end, _, child in self.spans:
            totals[layer] += (end - start) - child
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[0]] += 1
        return dict(totals)

    def covered_s(self) -> float:
        """Time covered by outermost spans (= the sum of all self times)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class Tracer:
    """Installed wrappers plus the recorder they currently report to."""

    def __init__(self) -> None:
        #: None while nothing is being recorded
        self.recorder: Optional[Recorder] = None
        self._saved: List[Tuple[object, str, object]] = []

    def activate(self, recorder: Optional[Recorder]) -> None:
        self.recorder = recorder

    def wrap(self, layer: Optional[str], original: Callable, observe=None):
        """*original* under a span of *layer* (None: only *observe*)."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder = self.recorder
            if recorder is None:
                return original(*args, **kwargs)
            span = recorder.begin(layer) if layer is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if span is not None:
                    recorder.end(span)
            if observe is not None:
                observe(recorder.counts, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = original
        return wrapper

    def patch(self, target, attr: str, value) -> None:
        self._saved.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        self.recorder = None
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


# -- per-call extras -----------------------------------------------------------


def _len_into(name: str, attr: Optional[str] = None):
    def observe(counts, args, kwargs, result):
        counts[name] += len(getattr(result, attr) if attr else result)

    return observe


def _plan_cache_get(counts, args, kwargs, result):
    counts["fed.plan_cache.lookups"] += 1
    if result is not None:
        counts["fed.plan_cache.hits"] += 1


def _substitution(counts, args, kwargs, result):
    option = args[1] if len(args) > 1 else kwargs.get("option")
    if result[0] is not option:
        counts["wrappers.meta.execute.substitutions"] += 1


def _shed(counts, args, kwargs, result):
    if not result.admitted:
        counts["fed.admission.sheds"] += 1


def _tally(name: str):
    def observe(counts, args, kwargs, result):
        counts[name] += 1

    return observe


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` as *layer*.

    *owner* is ``"module"`` or ``"module:Class"``.  With ``every_binding``
    the same function is also wrapped in every loaded ``repro`` module
    that imported it by name.
    """

    layer: Optional[str]
    owner: str
    attr: str
    observe: Optional[Callable] = None
    every_binding: bool = False


HOOKS: Tuple[Hook, ...] = (
    Hook("sqlengine.parser", "repro.sqlengine.parser", "parse",
         every_binding=True),
    Hook("sqlengine.logical", "repro.sqlengine.logical", "bind",
         every_binding=True),
    Hook("sqlengine.optimizer", "repro.sqlengine.optimizer:Optimizer",
         "optimize", _len_into("sqlengine.optimizer.candidates")),
    Hook("fed.decomposer", "repro.fed.decomposer", "decompose",
         _len_into("fed.decomposer.fragments", "fragments"),
         every_binding=True),
    Hook("wrappers.meta.compile", "repro.wrappers.meta:MetaWrapper",
         "compile_fragment"),
    Hook(None, "repro.sim.server:RemoteServer", "explain",
         _tally("wrappers.meta.compile.explains")),
    Hook("fed.global_optimizer", "repro.fed.integrator",
         "enumerate_global_plans", _len_into("fed.global_optimizer.plans")),
    Hook("fed.plan_cache", "repro.fed.plan_cache:PlanCache", "get",
         _plan_cache_get),
    Hook("fed.plan_cache", "repro.fed.plan_cache:PlanCache", "put"),
    Hook("core.routing", "repro.core.routing:QueryCostCalibrator", "tick"),
    Hook("core.routing", "repro.core.routing:QueryCostCalibrator",
         "recommend_global"),
    Hook("core.routing", "repro.core.routing:QueryCostCalibrator",
         "recalibrate", _tally("core.routing.recalibrations")),
    Hook("wrappers.meta.execute", "repro.wrappers.meta:MetaWrapper",
         "execute_option", _substitution),
    Hook("sim.server", "repro.sim.server:RemoteServer", "execute_plan"),
    Hook("sqlengine.executor.fragment", "repro.sqlengine.database",
         "execute_plan", _len_into("sqlengine.executor.fragment.rows_out",
                                   "rows")),
    Hook("sqlengine.executor.merge", "repro.fed.integrator", "execute_plan"),
    Hook("sqlengine.executor.merge", "repro.fed.concurrent", "execute_plan"),
    Hook("fed.merge", "repro.fed.integrator", "build_merge_plan"),
    Hook("fed.merge", "repro.fed.concurrent", "build_merge_plan"),
    Hook("sqlengine.dml", "repro.sqlengine.database:Database", "run_dml",
         _tally("sqlengine.dml.statements")),
    Hook("sqlengine.storage", "repro.sqlengine.storage:HeapTable",
         "columnar"),
    Hook("sim.sched", "repro.sim.sched:EventScheduler", "run"),
    Hook("sim.sched", "repro.sim.sched:ServerQueue", "submit",
         _tally("sim.sched.queue_submits")),
    Hook("fed.admission", "repro.fed.admission:AdmissionController",
         "decide", _shed),
    Hook("fed.hedging", "repro.fed.hedging:HedgePolicy", "hedge_after"),
    Hook("fed.hedging", "repro.fed.hedging:HedgePolicy", "note_outcome"),
    Hook("fed.integrator", "repro.fed.integrator:InformationIntegrator",
         "compile"),
    Hook("fed.integrator", "repro.fed.integrator:InformationIntegrator",
         "submit"),
    Hook("harness.deployment", "repro.harness.deployment",
         "build_databases"),
    Hook("harness.deployment", "repro.harness.deployment",
         "build_federation"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def install() -> Tracer:
    """Wrap every hook; ``restore()`` on the result undoes all of it."""
    tracer = Tracer()
    try:
        for hook in HOOKS:
            owner = _resolve(hook.owner)
            original = vars(owner)[hook.attr]
            wrapper = tracer.wrap(hook.layer, original, hook.observe)
            tracer.patch(owner, hook.attr, wrapper)
            if hook.every_binding:
                for name, module in sorted(sys.modules.items()):
                    if (
                        (name == "repro" or name.startswith("repro."))
                        and module is not owner
                        and getattr(module, hook.attr, None) is original
                    ):
                        tracer.patch(module, hook.attr, wrapper)
    except BaseException:
        tracer.restore()
        raise
    return tracer
