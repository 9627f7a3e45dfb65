"""The Information Integrator (II): federated compile + runtime phases.

Reproduces the operational flow of the paper's Figure 1/2:

Compile time — decompose the federated query into fragments, collect
candidate plans and (calibrated) costs through the meta-wrapper,
enumerate global plans, let the router pick the winner, store it in the
explain table.

Runtime — dispatch the chosen fragment plans through the meta-wrapper
(which reports response times to QCC), merge the fragment results
locally, and log completion with the query patroller.  Fragments execute
concurrently; the response time is ``max(fragment times) + merge time``,
with the merge inflated by II's own load.

Equivalence guarantee: :meth:`submit` runs its query alone through the
lifecycle every :class:`~repro.fed.concurrent.ConcurrentRuntime` query
walks, uncontended and without admission control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import NULL_TRACE, QueryTrace, get_obs
from ..obs.profile import PlanProfile
from ..sqlengine import (
    Catalog,
    CostParameters,
    DEFAULT_COST_PARAMETERS,
    PhysicalPlan,
    REFERENCE_PROFILE,
    Row,
    Schema,
    ServerProfile,
    execute_plan,  # noqa: F401  # re-exported: perfbench hooks this binding
    resolve_engine,
)
from ..sqlengine.storage import StorageManager
from ..sim import (
    ConstantLoad,
    ContentionProfile,
    LoadSchedule,
    RemoteExecution,
    VirtualClock,
)
from ..wrappers.meta import MetaWrapper
from .decomposer import DecomposedQuery, decompose
from .explain import ExplainTable
from .global_optimizer import (
    FragmentOption,
    GlobalPlan,
    enumerate_global_plans,
)
from .merge import build_merge_plan  # noqa: F401  # re-exported: perfbench hooks this binding
from .nicknames import NicknameRegistry
from .patroller import PatrolRecord, QueryPatroller
from .plan_cache import CalibrationEpoch, PlanCache, plan_key
from .routers import CostBasedRouter, Router


@dataclass
class FragmentOutcome:
    """What actually happened to one fragment at run time."""

    option: FragmentOption
    execution: RemoteExecution


@dataclass
class FederatedResult:
    """The integrator's answer to one federated query."""

    rows: List[Row]
    schema: Schema
    response_ms: float
    plan: GlobalPlan
    fragments: Dict[str, FragmentOutcome]
    record: PatrolRecord
    merge_ms: float
    remote_ms: float
    retries: int = 0
    trace: Optional[QueryTrace] = None
    #: the II-side merge plan that produced ``rows``
    merge_plan: Optional[PhysicalPlan] = None
    #: operator-level profile (only while profiling is enabled)
    profile: Optional[PlanProfile] = None
    #: fragments migrated mid-flight by the re-routing policy (always 0
    #: for ``submit`` and when re-routing is disabled)
    reroutes: int = 0

    @property
    def row_count(self) -> int:
        return len(self.rows)


class InformationIntegrator:
    """Federated query processor with pluggable routing and optional QCC."""

    def __init__(
        self,
        registry: NicknameRegistry,
        meta_wrapper: MetaWrapper,
        clock: Optional[VirtualClock] = None,
        profile: ServerProfile = REFERENCE_PROFILE,
        params: CostParameters = DEFAULT_COST_PARAMETERS,
        load: LoadSchedule = ConstantLoad(),
        contention: ContentionProfile = ContentionProfile(),
        router: Optional[Router] = None,
        qcc=None,
        replica_manager=None,
        compile_overhead_ms: float = 2.0,
        failure_penalty_ms: float = 250.0,
        max_retries: int = 3,
        advance_clock: bool = True,
        enable_plan_cache: bool = True,
        plan_cache_size: int = 128,
        engine: Optional[str] = None,
    ):
        self.registry = registry
        self.meta_wrapper = meta_wrapper
        self.clock = clock if clock is not None else VirtualClock()
        self.profile = profile
        self.params = params
        self.load = load
        self.contention = contention
        self.router = router if router is not None else CostBasedRouter()
        self.qcc = qcc
        if qcc is not None:
            self.meta_wrapper.attach_qcc(qcc)
        self.compile_overhead_ms = compile_overhead_ms
        self.failure_penalty_ms = failure_penalty_ms
        self.max_retries = max_retries
        self.advance_clock = advance_clock
        self.patroller = QueryPatroller()
        self.explain_table = ExplainTable()
        # The plan cache shares QCC's calibration epoch so recalibrations
        # and availability transitions invalidate cached compilations.  A
        # custom QCC that does not publish an epoch offers no way to tell
        # when its cost surface moves, so caching is refused outright
        # rather than risking stale plans.
        epoch = getattr(qcc, "epoch", None) if qcc is not None else None
        if qcc is not None and epoch is None:
            enable_plan_cache = False
        self.calibration_epoch = (
            epoch if epoch is not None else CalibrationEpoch()
        )
        self.plan_cache = (
            PlanCache(self.calibration_epoch, maxsize=plan_cache_size)
            if enable_plan_cache
            else None
        )
        if hasattr(registry, "bind_epoch"):
            registry.bind_epoch(self.calibration_epoch)
        self._replica_manager = None
        self.replica_manager = replica_manager
        #: Execution engine for the II-side merge (fragment engines are
        #: chosen by each remote server's database).
        self.engine = resolve_engine(engine)
        # Merge plans touch no stored tables; a bare storage manager is
        # enough for the execution context.
        self._merge_storage = StorageManager(Catalog())

    # -- wiring ----------------------------------------------------------

    @property
    def registry(self):
        return self._registry

    @registry.setter
    def registry(self, registry) -> None:
        """Swap the nickname registry (also valid after construction).

        The registry is bound to the calibration epoch so later topology
        changes invalidate cached plans, and plans compiled against the
        old topology are dropped immediately.
        """
        self._registry = registry
        # During __init__ the epoch does not exist yet; the constructor
        # binds explicitly once it does.
        epoch = getattr(self, "calibration_epoch", None)
        if epoch is not None and hasattr(registry, "bind_epoch"):
            registry.bind_epoch(epoch)
        cache = getattr(self, "plan_cache", None)
        if cache is not None:
            cache.clear()

    @property
    def replica_manager(self):
        return self._replica_manager

    @replica_manager.setter
    def replica_manager(self, manager) -> None:
        """Attach a replica manager (also valid after construction).

        The manager is bound to the calibration epoch so replica writes
        and syncs invalidate cached plans, and any plans compiled before
        the manager existed (without its freshness filters) are dropped.
        """
        self._replica_manager = manager
        if manager is not None and hasattr(manager, "bind_epoch"):
            manager.bind_epoch(self.calibration_epoch)
        if self.qcc is not None and hasattr(self.qcc, "replica_manager"):
            # QCC's timeline samples include per-server replica staleness
            # once it can see the manager.
            self.qcc.replica_manager = manager
        if self.plan_cache is not None:
            self.plan_cache.clear()

    # -- compile time ----------------------------------------------------

    def compile(
        self,
        sql: str,
        t_ms: Optional[float] = None,
        excluded_servers: Optional[set] = None,
        staleness_tolerance_ms: Optional[float] = None,
    ) -> Tuple[DecomposedQuery, List[GlobalPlan]]:
        """Compile *sql* into ranked global plans (no execution).

        With a replica manager attached and a ``staleness_tolerance_ms``,
        candidate servers whose copies are older than the tolerance are
        excluded — runtime-aware replica currency, re-evaluated at every
        compilation.

        Repeated compilations are served from the plan cache while the
        calibration epoch (and any replica-freshness horizon) says the
        cost surface has not moved, so a hit returns exactly the plans a
        fresh compilation would produce.
        """
        t = self.clock.now if t_ms is None else t_ms
        trace = get_obs().tracer.current or NULL_TRACE
        cache = self.plan_cache
        key = plan_key(sql, excluded_servers, staleness_tolerance_ms)
        if cache is not None:
            entry = cache.get(key, t)
            if entry is not None:
                trace.event(
                    "plan_cache",
                    t,
                    hit=True,
                    epoch=entry.epoch,
                    plans=len(entry.plans),
                )
                return entry.decomposed, list(entry.plans)
        span = trace.begin("decompose", t, sql=sql)
        decomposed = decompose(sql, self.registry)
        trace.end(
            span,
            t,
            fragments=[f.fragment_id for f in decomposed.fragments],
        )
        span = trace.begin("plan_enumeration", t)
        plans = self._plans_for(
            decomposed, t, set(excluded_servers or ()), staleness_tolerance_ms
        )
        trace.end(
            span,
            t,
            plans=len(plans),
            best_estimate=plans[0].total_cost if plans else None,
        )
        if cache is not None:
            cache.put(
                key,
                decomposed,
                plans,
                t,
                valid_until_ms=self._freshness_horizon(
                    decomposed, t, staleness_tolerance_ms
                ),
            )
            trace.event("plan_cache", t, hit=False, epoch=cache.epoch.value)
        return decomposed, plans

    def _freshness_horizon(
        self,
        decomposed: DecomposedQuery,
        t_ms: float,
        staleness_tolerance_ms: Optional[float],
    ) -> Optional[float]:
        """Earliest instant replica currency could change the candidate
        set of *decomposed* — cache entries expire there.

        Between epoch bumps a placement's staleness only grows, so the
        fresh set can only shrink, and it shrinks exactly when a behind-
        but-fresh placement crosses the tolerance.  Placements already
        past the tolerance re-enter only via a sync, which bumps the
        epoch.
        """
        manager = self._replica_manager
        if manager is None or staleness_tolerance_ms is None:
            return None
        deadline_of = getattr(manager, "freshness_deadline", None)
        if deadline_of is None:
            # Unknown manager implementation: never serve from cache.
            return t_ms
        horizon: Optional[float] = None
        for fragment in decomposed.fragments:
            for nickname in fragment.nicknames:
                for server in fragment.candidate_servers:
                    deadline = deadline_of(
                        nickname, server, staleness_tolerance_ms
                    )
                    if deadline is not None and deadline > t_ms:
                        horizon = (
                            deadline
                            if horizon is None
                            else min(horizon, deadline)
                        )
        return horizon

    def _plans_for(
        self,
        decomposed: DecomposedQuery,
        t_ms: float,
        excluded_servers: set,
        staleness_tolerance_ms: Optional[float] = None,
    ) -> List[GlobalPlan]:
        options: Dict[str, List[FragmentOption]] = {}
        for fragment in decomposed.fragments:
            fragment_options = self.meta_wrapper.compile_fragment(fragment, t_ms)
            allowed = None
            if (
                self.replica_manager is not None
                and staleness_tolerance_ms is not None
            ):
                allowed = self.replica_manager.fresh_servers(
                    fragment.nicknames, t_ms, staleness_tolerance_ms
                )
            options[fragment.fragment_id] = [
                o
                for o in fragment_options
                if o.server not in excluded_servers
                and (allowed is None or o.server in allowed)
            ]
        ii_factor = self.qcc.ii_factor() if self.qcc is not None else 1.0
        return enumerate_global_plans(
            decomposed,
            options,
            self.profile,
            self.params,
            ii_calibration_factor=ii_factor,
        )

    # -- run time ------------------------------------------------------------

    def submit(
        self,
        sql: str,
        label: Optional[str] = None,
        t_ms: Optional[float] = None,
        staleness_tolerance_ms: Optional[float] = None,
    ) -> FederatedResult:
        """Process one federated query end to end.

        The query runs alone through the concurrent runtime's lifecycle
        (see :meth:`ConcurrentRuntime._run_lone`).  A user SQL error, or
        a :class:`~repro.fed.nicknames.FederationError` once retries are
        exhausted, is raised after the query is settled as failed.
        """
        # concurrent.py imports this module, so the runtime comes in late.
        from .concurrent import ConcurrentRuntime

        t0 = self.clock.now if t_ms is None else t_ms
        handle = ConcurrentRuntime._run_lone(
            self, sql, label, t0, staleness_tolerance_ms
        )
        if handle.error is not None:
            raise handle.error
        result = handle.result
        if self.advance_clock and t_ms is None:
            self.clock.advance(result.response_ms)
        return result

    # -- convenience -----------------------------------------------------

    def explain(self, sql: str) -> List[GlobalPlan]:
        """Compile-only entry point (explain mode)."""
        _, plans = self.compile(sql)
        return plans
