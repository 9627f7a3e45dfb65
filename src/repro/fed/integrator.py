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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import NULL_TRACE, QueryTrace, get_obs
from ..obs.profile import NULL_PROFILER, PlanProfile, get_profiler
from ..sqlengine import (
    Catalog,
    CostParameters,
    DEFAULT_COST_PARAMETERS,
    MaterializedInput,
    PhysicalPlan,
    REFERENCE_PROFILE,
    Row,
    Schema,
    ServerProfile,
    SqlError,
    execute_plan,
    resolve_engine,
)
from ..sqlengine.storage import StorageManager
from ..sim import (
    ConstantLoad,
    ContentionProfile,
    LoadSchedule,
    RemoteExecution,
    ServerUnavailable,
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
from .merge import build_merge_plan
from .nicknames import FederationError, NicknameRegistry
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
    #: on the sequential path and when re-routing is disabled)
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
        """Process one federated query end to end."""
        t0 = self.clock.now if t_ms is None else t_ms
        record = self.patroller.submit(sql, t0, label=label)
        obs = get_obs()
        obs.metrics.counter("ii_queries_total").inc()
        trace = obs.tracer.start(record.query_id, sql, t0)
        if self.qcc is not None:
            self.qcc.tick(t0)

        elapsed = self.compile_overhead_ms
        excluded: set = set()
        retries = 0
        # Retry attempts recompile at the *advanced* clock — the failed
        # attempt and its penalty have consumed virtual time, and a
        # compilation stamped with the stale t0 would consult load,
        # availability and replica freshness as of before the failure.
        t_attempt = t0
        last_error: Optional[ServerUnavailable] = None

        while retries <= self.max_retries:
            try:
                decomposed, plans = self.compile(
                    sql, t_attempt, excluded, staleness_tolerance_ms
                )
            except SqlError as exc:
                # Unknown tables, parse errors and other user SQL errors
                # fail this query alone: no retry, no server blamed.
                self._fail_query(record, trace, t0 + elapsed, str(exc))
                raise
            span = trace.begin("route", t_attempt)
            if self.qcc is not None:
                chosen = self.qcc.recommend_global(decomposed, plans, t_attempt)
            else:
                chosen = self.router.choose(decomposed, plans, label, t_attempt)
            trace.end(
                span,
                t_attempt,
                servers=sorted(chosen.servers),
                estimated_total=chosen.total_cost,
                candidates=len(plans),
            )
            try:
                result = self._execute_plan(
                    decomposed, chosen, t0 + elapsed, record, retries
                )
            except ServerUnavailable as exc:
                last_error = exc
                excluded.add(exc.server)
                self.patroller.note_server_failure(record, exc.server)
                obs.metrics.counter("ii_query_retries_total").inc()
                trace.event(
                    "retry", t0 + elapsed, server=exc.server, attempt=retries
                )
                elapsed += self.failure_penalty_ms
                retries += 1
                t_attempt = t0 + elapsed
                continue
            except SqlError as exc:
                # A type error in the query's own data is the query's
                # fault, not the server's: fail it without a retry.
                self._fail_query(record, trace, t0 + elapsed, str(exc))
                raise
            self.patroller.complete(record, t0 + result.response_ms)
            obs.metrics.histogram("ii_response_ms").observe(result.response_ms)
            obs.tracer.finish(trace, t0 + result.response_ms)
            if trace is not NULL_TRACE:
                result.trace = trace
                self.explain_table.attach_trace(record.query_id, trace)
            profiler = get_profiler()
            if profiler is not NULL_PROFILER:
                result.profile = profiler.capture()
                self.explain_table.attach_profile(
                    record.query_id, result.profile
                )
            if self.advance_clock and t_ms is None:
                self.clock.advance(result.response_ms)
            return result

        # ``retries`` has overshot by one on exit: it counts *attempts*
        # (initial try included), not retries.
        message = (
            f"query failed after {self.max_retries} retries"
            f" ({retries} attempts)"
            + (f": {last_error}" if last_error else "")
        )
        self._fail_query(
            record,
            trace,
            t0 + elapsed,
            message,
            server=last_error.server if last_error else None,
        )
        raise FederationError(message)

    def _fail_query(
        self,
        record: PatrolRecord,
        trace: QueryTrace,
        t_ms: float,
        error: str,
        server: Optional[str] = None,
    ) -> None:
        """Settle a failed query: patrol record, failure counter, trace."""
        obs = get_obs()
        self.patroller.fail(record, t_ms, error, server=server)
        obs.metrics.counter("ii_query_failures_total").inc()
        obs.tracer.finish(trace, t_ms, status="failed")

    def _execute_plan(
        self,
        decomposed: DecomposedQuery,
        chosen: GlobalPlan,
        t_ms: float,
        record: PatrolRecord,
        retries: int,
    ) -> FederatedResult:
        self.explain_table.record(record.query_id, record.sql, t_ms, chosen)
        obs = get_obs()
        trace = obs.tracer.current or NULL_TRACE

        # Dispatch every fragment at the same instant (concurrently).
        outcomes: Dict[str, FragmentOutcome] = {}
        remote_ms = 0.0
        for choice in chosen.choices:
            span = trace.begin(
                "dispatch",
                t_ms,
                fragment=choice.fragment.fragment_id,
                server=choice.server,
            )
            option, execution = self.meta_wrapper.execute_option(choice, t_ms)
            estimated = option.estimated.total
            trace.end(
                span,
                t_ms + execution.observed_ms,
                server=option.server,
                estimated_total=estimated,
                calibrated_total=option.calibrated.total,
                calibration_factor=(
                    option.calibrated.total / estimated if estimated > 0 else None
                ),
                observed_ms=execution.observed_ms,
                substituted=option.server != choice.server,
                engine=execution.engine,
            )
            outcomes[option.fragment.fragment_id] = FragmentOutcome(
                option=option, execution=execution
            )
            remote_ms = max(remote_ms, execution.observed_ms)

        # II-side merge over the fragment results.
        inputs: Dict[str, PhysicalPlan] = {
            fragment_id: MaterializedInput(
                fragment_id,
                decomposed.fragment_for_binding(
                    outcome.option.fragment.bindings[0]
                ).output_schema,
                outcome.execution.rows,
            )
            for fragment_id, outcome in outcomes.items()
        }
        span = trace.begin("merge", t_ms + remote_ms)
        merge_plan = build_merge_plan(decomposed, inputs)
        merge_result = execute_plan(
            merge_plan, self._merge_storage, self.params, engine=self.engine
        )
        level = self.load.level(t_ms)
        merge_ms = (
            self.profile.cpu_ms(merge_result.meter.cpu_ms)
            * self.contention.cpu_multiplier(level)
            + self.profile.io_ms(merge_result.meter.io_ms)
            * self.contention.io_multiplier(level)
        )
        trace.end(
            span,
            t_ms + remote_ms + merge_ms,
            estimated_total=chosen.merge_cost.total,
            observed_ms=merge_ms,
            rows=len(merge_result.rows),
            ii_load=level,
            engine=merge_result.engine,
        )
        obs.metrics.histogram("ii_merge_ms").observe(merge_ms)
        obs.metrics.histogram("ii_remote_ms").observe(remote_ms)

        response_ms = (t_ms - record.submitted_ms) + remote_ms + merge_ms

        if self.qcc is not None:
            raw_estimate = (
                max(c.calibrated.total for c in chosen.choices)
                + chosen.merge_cost.total
            )
            self.qcc.record_ii_execution(
                estimated_total=raw_estimate,
                observed_ms=remote_ms + merge_ms,
                t_ms=t_ms,
            )

        return FederatedResult(
            rows=merge_result.rows,
            schema=merge_result.schema,
            response_ms=response_ms,
            plan=chosen,
            fragments=outcomes,
            record=record,
            merge_ms=merge_ms,
            remote_ms=remote_ms,
            retries=retries,
            merge_plan=merge_plan,
        )

    # -- convenience -----------------------------------------------------

    def explain(self, sql: str) -> List[GlobalPlan]:
        """Compile-only entry point (explain mode)."""
        _, plans = self.compile(sql)
        return plans
