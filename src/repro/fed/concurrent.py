"""Concurrent federation runtime: overlapping queries on shared servers.

:class:`ConcurrentRuntime` drives an unmodified
:class:`~repro.fed.integrator.InformationIntegrator` from a
discrete-event scheduler (:mod:`repro.sim.sched`).  Each submitted query
becomes a coroutine that walks exactly the integrator's sequential
control flow — admission, patrol record, compile, route, dispatch,
retry-on-failover, merge — but instead of charging fragment times
straight to the clock it *yields* the raw service demands into
per-server capacity queues.  When many queries are in flight their
fragments contend, sojourn times inflate, and the inflated sojourns (not
the raw demands) are what the meta-wrapper reports to QCC — so the
calibrator observes load exactly the way the paper's testbed observed
update storms, except the load now emerges from query concurrency
itself.

Equivalence guarantee: this module holds the one query lifecycle.
``integrator.submit`` runs its query alone through the same coroutine
(:meth:`ConcurrentRuntime._run_lone`), where it meets no contention —
and uncontended work observes sojourn == raw demand *exactly* (see
:class:`~repro.sim.sched.Completion`).  A golden digest in
``tests/integration/test_sequential_lifecycle_digest.py`` pins it.

Admission happens at the patroller's front door of :meth:`submit_at`
(a lone ``submit`` never passes it): each query carries a priority
class; the :class:`~repro.fed.admission.AdmissionController`
sheds it (recorded, budgeted, token-audited) before any work is done
when the class is out of tokens or the backlog already exceeds its
latency budget.

Known approximation: the observability tracer's "current trace" is
process-global, so spans from overlapping queries attach to whichever
trace started last when tracing is enabled.  Each query's own trace
object is still threaded through its coroutine, so per-query span data
is correct; only ``tracer.current`` is ambiguous mid-flight.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.load_balance import rank_servers
from ..core.routing import generalize_signature
from ..obs import (
    NULL_TRACE,
    QueryTrace,
    QueueSpanRecorder,
    SpanTag,
    get_obs,
)
from ..obs.profile import NULL_PROFILER, get_profiler
from ..sim import (
    AllOf,
    Delay,
    EventScheduler,
    HedgedWork,
    MigratableWork,
    ServerQueue,
    ServerUnavailable,
    VirtualClock,
    Work,
)
from ..sqlengine import MaterializedInput, PhysicalPlan, SqlError, execute_plan
from .admission import (
    AdmissionController,
    DEFAULT_CLASSES,
    PriorityClass,
    ShedVerdict,
)
from .global_optimizer import FragmentOption
from .hedging import DEFAULT_DEPTH_CAP, HedgePolicy, make_policy
from .integrator import (
    FederatedResult,
    FragmentOutcome,
    InformationIntegrator,
)
from .merge import build_merge_plan
from .nicknames import FederationError
from .rerouting import (
    ReroutePolicy,
    RerouteSettle,
    batch_schedule,
    make_reroute_policy,
    merge_partial_rows,
    tail_demand_ms,
)

#: Queue name of the integrator's own merge stage.
II_QUEUE = "II"


@dataclass
class QueryHandle:
    """The caller's view of one in-flight (or finished) query."""

    index: int
    sql: str
    klass: str
    label: Optional[str]
    submitted_ms: float
    result: Optional[FederatedResult] = None
    shed: Optional[ShedVerdict] = None
    error: Optional[Exception] = None
    #: The query's span tree when tracing is enabled (every outcome —
    #: completed, shed, failed — gets one); None with the null tracer.
    trace: Optional[QueryTrace] = None

    @property
    def status(self) -> str:
        if self.result is not None:
            return "completed"
        if self.shed is not None:
            return "shed"
        if self.error is not None:
            return "failed"
        return "pending"

    @property
    def done(self) -> bool:
        return self.status != "pending"

    @property
    def response_ms(self) -> Optional[float]:
        if self.result is not None:
            return self.result.response_ms
        return None


class ConcurrentRuntime:
    """Event-driven multi-query front end over one integrator.

    ``discipline`` selects the per-server contention model (``"ps"``
    processor sharing or ``"fifo"``); ``server_capacity`` /
    ``ii_capacity`` are service rates (1.0 = the speed ``submit``
    charges).  The runtime owns the integrator's clock via its scheduler
    and disables the integrator's own clock advancement.

    ``hedge_after_ms`` enables hedged fragment dispatch (the static
    hedge delay; per-signature p95 derivation takes over once latency
    history accumulates — see :mod:`repro.fed.hedging`).  ``None`` (the
    default) disables hedging entirely and the runtime is byte-identical
    to the pre-hedging code path.

    ``reroute_batch_rows`` enables bounded mid-query batch re-routing
    (see :mod:`repro.fed.rerouting`): in-flight fragments observing a
    calibration-epoch bump checkpoint consumed batches and migrate the
    remaining scan range to the next HRW-ranked identical-plan replica.
    ``None`` (the default) disables re-routing and the runtime is
    byte-identical to the non-rerouting code path; hedging and
    re-routing are mutually exclusive (both race a fragment against a
    replica — combining them would double-release cancelled work).
    """

    def __init__(
        self,
        integrator: InformationIntegrator,
        classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
        discipline: str = "ps",
        server_capacity: float = 1.0,
        ii_capacity: float = 1.0,
        hedge_after_ms: Optional[float] = None,
        hedge_depth_cap: int = DEFAULT_DEPTH_CAP,
        reroute_batch_rows: Optional[int] = None,
    ):
        if hedge_after_ms is not None and reroute_batch_rows is not None:
            raise ValueError(
                "hedged dispatch and mid-query re-routing are mutually "
                "exclusive; enable one of hedge_after_ms / "
                "reroute_batch_rows"
            )
        self.integrator = integrator
        self.hedge_after_ms = hedge_after_ms
        self.hedging: Optional[HedgePolicy] = make_policy(
            hedge_after_ms, hedge_depth_cap
        )
        self.reroute_batch_rows = reroute_batch_rows
        self.rerouting: Optional[ReroutePolicy] = make_reroute_policy(
            reroute_batch_rows
        )
        integrator.advance_clock = False
        self.scheduler = EventScheduler(integrator.clock)
        self.discipline = discipline
        self.server_capacity = float(server_capacity)
        self.queues: Dict[str, ServerQueue] = {}
        self.ii_queue = ServerQueue(
            II_QUEUE,
            self.scheduler,
            capacity=ii_capacity,
            discipline=discipline,
        )
        for name in integrator.meta_wrapper.server_names():
            self.queues[name] = ServerQueue(
                name,
                self.scheduler,
                capacity=self.server_capacity,
                discipline=discipline,
            )
        sources: Dict[str, ServerQueue] = dict(self.queues)
        sources[II_QUEUE] = self.ii_queue
        self.admission = AdmissionController(
            classes, sources, t0_ms=self.scheduler.now
        )
        self.handles: List[QueryHandle] = []
        #: Installed on every queue the first time a traced query runs;
        #: None until then so untraced runs submit zero extra events.
        self._span_recorder: Optional[QueueSpanRecorder] = None
        #: Highest-priority class: the default for unclassified queries.
        self._default_class = min(
            classes, key=lambda c: c.rank
        ).name

    # -- queue plumbing --------------------------------------------------

    def _queue_for(self, server: str) -> ServerQueue:
        """Capacity queue for *server*, created lazily so servers that
        appear after construction (replica promotion, chaos topology
        changes) still contend.

        A lone runtime (no admission) keeps none: each request gets a
        fresh queue."""
        queue = self.queues.get(server)
        if queue is None:
            queue = ServerQueue(
                server,
                self.scheduler,
                capacity=self.server_capacity,
                discipline=self.discipline,
            )
            if self._span_recorder is not None:
                queue.events = self._span_recorder
            if self.admission is not None:
                self.queues[server] = queue
                self.admission.backlog_sources[server] = queue
        return queue

    def _ensure_span_recorder(self) -> None:
        """Install the shared queue-hook span recorder on every queue.

        Called only from traced query coroutines, so a runtime that
        never traces keeps ``NULL_QUEUE_EVENTS`` on every queue and the
        scheduler's disabled fast path (no start-notification events on
        the heap) stays byte-identical.
        """
        if self._span_recorder is None:
            self._span_recorder = QueueSpanRecorder()
            self.ii_queue.events = self._span_recorder
            for queue in self.queues.values():
                queue.events = self._span_recorder

    @staticmethod
    def _span_tag(trace: QueryTrace, parent) -> Optional[SpanTag]:
        """Queue-hook tag for work dispatched under *parent*, or None
        when tracing is disabled (untagged work skips the recorder)."""
        if trace is NULL_TRACE:
            return None
        return SpanTag(trace, parent)

    # -- hedging ---------------------------------------------------------

    def _backup_option(
        self, primary: FragmentOption, t_fire: float
    ) -> Optional[FragmentOption]:
        """The replica a hedge backup (or migration) should target.

        Candidates are the fragment's compile-time siblings with an
        *identical* plan on a different server, near the cluster's
        cheapest cost (same exchangeability rule as Section 4.1
        balancing), walked in HRW rank order — the target is the
        highest-ranked exchangeable replica that is believed available
        at the instant the hedge (or re-route interrupt) fires.
        """
        mw = self.integrator.meta_wrapper
        qcc = self.integrator.qcc
        siblings = mw.sibling_options(primary.fragment.signature)
        matches = [
            option
            for option in siblings
            if option.server != primary.server
            and option.plan_signature == primary.plan_signature
            and option.is_viable
        ]
        if not matches:
            return None
        cheapest = min(
            [o.calibrated.total for o in matches]
            + [primary.calibrated.total]
        )
        if self.hedging is not None:
            band = self.hedging.config.band
        elif self.rerouting is not None:
            band = self.rerouting.config.band
        else:
            band = 0.2
        near = [
            o for o in matches if o.calibrated.total <= cheapest * (1.0 + band)
        ]
        if not near:
            return None
        by_server: Dict[str, FragmentOption] = {}
        for option in near:
            by_server.setdefault(option.server, option)
        for server in rank_servers(
            primary.fragment.signature, sorted(by_server)
        ):
            if qcc is not None and not qcc.is_available(server, t_fire):
                continue
            return by_server[server]
        return None

    def _hedged_request(
        self,
        slot: int,
        entry: tuple,
        t_dispatch: float,
        trace,
        backup_slots: Dict[int, tuple],
    ) -> HedgedWork:
        """Wrap one executed fragment into a :class:`HedgedWork` race.

        The backup is built lazily at the instant the hedge timer fires:
        replica choice, availability and the fanout cap all reflect the
        queue state *then*, and the backup's raw demand is learned by
        executing the fragment at the backup wrapper at that instant
        (``report=False`` — a loser must never feed the calibrator).
        """
        choice, option, execution, frag_span = entry
        policy = self.hedging
        assert policy is not None
        obs = get_obs()
        mw = self.integrator.meta_wrapper
        general = generalize_signature(option.fragment.signature)

        def backup_factory(t_fire: float) -> Optional[Work]:
            backup = self._backup_option(option, t_fire)
            if backup is None:
                return None
            queue = self._queue_for(backup.server)
            if not policy.allow_backup(queue.depth):
                policy.suppressed += 1
                obs.metrics.counter(
                    "hedge_suppressed_total", server=backup.server
                ).inc()
                return None
            try:
                backup, backup_execution = mw.execute_option(
                    backup, t_fire, allow_substitution=False, report=False
                )
            except ServerUnavailable:
                return None
            # The backup's queue lifecycle (queue_wait / service, or a
            # cancelled slice when the primary wins) hangs off this span
            # so the hedge race is visible inside the fragment's
            # dispatch span.
            hedge_span = trace.begin_child(
                frag_span,
                "hedge_backup",
                t_fire,
                fragment=choice.fragment.fragment_id,
                primary=option.server,
                server=backup.server,
                fired_ms=t_fire,
            )
            backup_slots[slot] = (backup, backup_execution, hedge_span)
            obs.metrics.counter(
                "hedge_fired_total", server=backup.server
            ).inc()
            return Work(
                queue,
                backup_execution.observed_ms,
                tag=self._span_tag(trace, hedge_span),
            )

        return HedgedWork(
            primary=Work(
                self._queue_for(option.server),
                execution.observed_ms,
                tag=self._span_tag(trace, frag_span),
            ),
            hedge_after_ms=policy.hedge_after(general),
            backup_factory=backup_factory,
        )

    def _settle_hedges(
        self,
        executed: List[tuple],
        hedge_results: List,
        backup_slots: Dict[int, tuple],
        t_dispatch: float,
        trace: QueryTrace,
    ) -> List[tuple]:
        """Resolve each fragment's race to the winning (option,
        execution, completion) triple and account for the loser."""
        policy = self.hedging
        assert policy is not None
        obs = get_obs()
        mw = self.integrator.meta_wrapper
        settled = []
        for slot, (entry, outcome) in enumerate(
            zip(executed, hedge_results)
        ):
            choice, option, execution, frag_span = entry
            completion = outcome.completion
            hedge_span = None
            if outcome.winner == "backup":
                loser = option
                option, execution, hedge_span = backup_slots[slot]
                # The query's real fragment latency includes the hedge
                # wait before the backup was even fired.
                effective_ms = completion.finished_ms - t_dispatch
                obs.metrics.counter(
                    "hedge_backup_wins_total", server=option.server
                ).inc()
                mw.note_hedge_waste(
                    loser, outcome.wasted_ms, completion.finished_ms
                )
            else:
                effective_ms = completion.sojourn_ms
                if outcome.hedged:
                    loser, _, hedge_span = backup_slots[slot]
                    mw.note_hedge_waste(
                        loser, outcome.wasted_ms, completion.finished_ms
                    )
            if hedge_span is not None:
                trace.end(
                    hedge_span,
                    completion.finished_ms,
                    winner=outcome.winner,
                    wasted_ms=outcome.wasted_ms,
                )
            policy.note_outcome(
                outcome.hedged, outcome.winner, outcome.wasted_ms
            )
            policy.observe(
                generalize_signature(option.fragment.signature),
                effective_ms,
            )
            settled.append(
                (choice, option, execution, frag_span, completion,
                 effective_ms, outcome)
            )
        return settled

    # -- mid-query re-routing --------------------------------------------

    def _migratable_request(
        self,
        slot: int,
        entry: tuple,
        t_dispatch: float,
        trace,
        reroute_slots: Dict[int, tuple],
    ) -> MigratableWork:
        """Wrap one executed fragment into a :class:`MigratableWork`.

        The primary's full demand is submitted exactly as a plain
        ``Work`` yield — enabled-but-untriggered re-routing is
        byte-identical to the non-rerouting path.  The interrupt is the
        calibration epoch itself (availability flips bump it too); the
        migrate callback checkpoints consumed batches, picks the next
        HRW-ranked identical-plan replica, and learns the tail's demand
        by executing the fragment at the target at the fire instant
        (``report=False`` — a migration leg must never feed the
        calibrator).
        """
        choice, option, execution, frag_span = entry
        policy = self.rerouting
        assert policy is not None
        obs = get_obs()
        mw = self.integrator.meta_wrapper
        epoch = self.integrator.calibration_epoch
        schedule = batch_schedule(execution, policy.config.batch_rows)

        def arm(interrupt) -> "callable":
            if epoch is None or len(schedule) <= 1:
                # Nothing to checkpoint between — a single-batch
                # fragment has no boundary to migrate at.
                return lambda: None
            return epoch.subscribe(lambda _value: interrupt())

        def migrate(t_fire: float, consumed_ms: float) -> Optional[Work]:
            point = policy.checkpoint(schedule, consumed_ms)
            if not policy.should_migrate(schedule, point):
                policy.note_declined("drained")
                return None
            target = self._backup_option(option, t_fire)
            if target is None:
                policy.note_declined("no-replica")
                obs.metrics.counter(
                    "reroute_declined_total", reason="no-replica"
                ).inc()
                return None
            try:
                target, target_execution = mw.execute_option(
                    target, t_fire, allow_substitution=False, report=False
                )
            except ServerUnavailable:
                policy.note_declined("target-down")
                obs.metrics.counter(
                    "reroute_declined_total", reason="target-down"
                ).inc()
                return None
            reroute_span = trace.begin_child(
                frag_span,
                "reroute",
                t_fire,
                fragment=choice.fragment.fragment_id,
                primary=option.server,
                server=target.server,
                cut_row=point.cut_row,
                batches_kept=point.batches_kept,
                fired_ms=t_fire,
            )
            reroute_slots[slot] = (
                target, target_execution, point, reroute_span,
            )
            obs.metrics.counter(
                "reroute_fired_total", server=target.server
            ).inc()
            return Work(
                self._queue_for(target.server),
                tail_demand_ms(target_execution, point.cut_row),
                tag=self._span_tag(trace, reroute_span),
            )

        return MigratableWork(
            primary=Work(
                self._queue_for(option.server),
                execution.observed_ms,
                tag=self._span_tag(trace, frag_span),
            ),
            arm=arm,
            migrate=migrate,
        )

    def _settle_reroutes(
        self,
        executed: List[tuple],
        migration_results: List,
        reroute_slots: Dict[int, tuple],
        t_dispatch: float,
        trace: QueryTrace,
    ) -> List[tuple]:
        """Resolve each fragment to its settled tuple, merging partial
        results and accounting for the cancelled primary leg."""
        policy = self.rerouting
        assert policy is not None
        mw = self.integrator.meta_wrapper
        settled = []
        for slot, (entry, outcome) in enumerate(
            zip(executed, migration_results)
        ):
            choice, option, execution, frag_span = entry
            completion = outcome.completion
            if not outcome.migrated:
                settled.append(
                    (choice, option, execution, frag_span, completion,
                     completion.sojourn_ms, None)
                )
                continue
            target, target_execution, point, reroute_span = (
                reroute_slots[slot]
            )
            # The fragment's real latency spans primary dispatch through
            # the migrated tail's completion.
            effective_ms = completion.finished_ms - t_dispatch
            merged_rows = merge_partial_rows(
                execution.rows, target_execution.rows, point.cut_row
            )
            migrated_rows = execution.row_count - point.cut_row
            wasted_ms = max(
                0.0, outcome.consumed_ms - point.kept_demand_ms
            )
            policy.note_fired(migrated_rows, wasted_ms)
            mw.note_reroute(
                option,
                target,
                cut_row=point.cut_row,
                wasted_ms=wasted_ms,
                t_ms=completion.finished_ms,
            )
            trace.end(
                reroute_span,
                completion.finished_ms,
                migrated_rows=migrated_rows,
                wasted_ms=wasted_ms,
            )
            settle = RerouteSettle(
                target=target,
                merged_rows=merged_rows,
                cut_row=point.cut_row,
                migrated_rows=migrated_rows,
                wasted_ms=wasted_ms,
                consumed_ms=outcome.consumed_ms,
                fired_ms=outcome.migrated_at_ms,
            )
            settled.append(
                (choice, option, execution, frag_span, completion,
                 effective_ms, settle)
            )
        return settled

    # -- submission ------------------------------------------------------

    def submit_at(
        self,
        t_ms: float,
        sql: str,
        klass: Optional[str] = None,
        label: Optional[str] = None,
        staleness_tolerance_ms: Optional[float] = None,
    ) -> QueryHandle:
        """Schedule one federated query to arrive at virtual *t_ms*."""
        handle = QueryHandle(
            index=len(self.handles),
            sql=sql,
            klass=klass if klass is not None else self._default_class,
            label=label,
            submitted_ms=t_ms,
        )
        self.handles.append(handle)
        self.scheduler.spawn(
            self._query_process(handle, staleness_tolerance_ms), at_ms=t_ms
        )
        return handle

    def run(self, until_ms: Optional[float] = None) -> float:
        """Run the event loop until quiescence (or *until_ms*)."""
        return self.scheduler.run(until_ms)

    @classmethod
    def _run_lone(
        cls,
        integrator: InformationIntegrator,
        sql: str,
        label: Optional[str],
        t0_ms: float,
        staleness_tolerance_ms: Optional[float],
    ) -> QueryHandle:
        """Run one query alone, for ``InformationIntegrator.submit``.

        The private runtime has its own clock from *t0_ms* (an explicit
        submit time may lie behind the integrator's clock, which stays
        the caller's to advance), no admission, hedging or re-routing,
        and a fresh queue per request: the query meets no contention,
        not even between its own fragments on one server.
        """
        runtime = cls.__new__(cls)
        runtime.integrator = integrator
        runtime.hedging = runtime.rerouting = runtime.admission = None
        runtime.scheduler = EventScheduler(VirtualClock(t0_ms))
        runtime.discipline = "ps"
        runtime.server_capacity = 1.0
        runtime.queues = {}
        runtime.ii_queue = ServerQueue(II_QUEUE, runtime.scheduler)
        runtime._span_recorder = None
        klass = min(DEFAULT_CLASSES, key=lambda c: c.rank).name
        handle = QueryHandle(0, sql, klass, label, t0_ms)
        runtime.scheduler.spawn(
            runtime._query_process(handle, staleness_tolerance_ms), at_ms=t0_ms
        )
        runtime.run()
        return handle

    # -- results ---------------------------------------------------------

    def completed(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.result is not None]

    def sheds(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.shed is not None]

    def failures(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.error is not None]

    # -- the per-query coroutine ----------------------------------------

    def _query_process(
        self, handle: QueryHandle, staleness_tolerance_ms: Optional[float]
    ):
        ii = self.integrator
        mw = ii.meta_wrapper
        obs = get_obs()
        t0 = handle.submitted_ms
        obs.metrics.gauge("sched_in_flight").set(
            self.scheduler.live_processes
        )

        record = ii.patroller.submit(handle.sql, t0, label=handle.label)
        trace = obs.tracer.start(record.query_id, handle.sql, t0)
        if trace is not NULL_TRACE:
            self._ensure_span_recorder()
            handle.trace = trace
        root = trace.begin(
            "query", t0, klass=handle.klass, query_index=handle.index
        )
        if self.admission is not None and not self._admit(
            handle, record, trace, root
        ):
            return

        obs.metrics.counter("ii_queries_total").inc()
        if ii.qcc is not None:
            ii.qcc.tick(t0)

        elapsed = ii.compile_overhead_ms
        excluded: set = set()
        retries = 0
        t_attempt = t0
        last_error: Optional[ServerUnavailable] = None

        while retries <= ii.max_retries:
            compile_span = trace.begin("compile", t_attempt, attempt=retries)
            try:
                decomposed, plans = ii.compile(
                    handle.sql, t_attempt, excluded, staleness_tolerance_ms
                )
            except SqlError as exc:
                # Unknown tables, parse errors and other user SQL errors
                # fail this query alone: no retry, no server blamed.
                self._fail(handle, record, trace, root, t0 + elapsed, exc)
                return
            span = trace.begin("route", t_attempt)
            if ii.qcc is not None:
                chosen = ii.qcc.recommend_global(decomposed, plans, t_attempt)
            else:
                chosen = ii.router.choose(
                    decomposed, plans, handle.label, t_attempt
                )
            trace.end(
                span,
                t_attempt,
                servers=sorted(chosen.servers),
                estimated_total=chosen.total_cost,
                candidates=len(plans),
            )
            if retries == 0:
                # Dispatch is stamped at t0 + compile_overhead; retries
                # recompile at the already advanced clock with no extra
                # overhead.
                yield Delay(ii.compile_overhead_ms)
            t_dispatch = t0 + elapsed
            trace.end(compile_span, t_dispatch, plan_candidates=len(plans))

            ii.explain_table.record(
                record.query_id, record.sql, t_dispatch, chosen
            )

            # Execute every fragment at the dispatch instant to learn its
            # raw service demand (report=False defers QCC reporting until
            # the queue-inflated sojourn is known).
            executed = []  # (choice, option, execution, span)
            failure: Optional[Exception] = None
            for choice in chosen.choices:
                # Explicit-parent spans: concurrent siblings overlap in
                # virtual time, so they must not stack-nest.
                frag_span = trace.begin_child(
                    root,
                    "dispatch",
                    t_dispatch,
                    fragment=choice.fragment.fragment_id,
                    server=choice.server,
                )
                try:
                    option, execution = mw.execute_option(
                        choice, t_dispatch, report=False
                    )
                except (ServerUnavailable, SqlError) as exc:
                    failure = exc
                    trace.end(
                        frag_span, t_dispatch, failed=True, reason=str(exc)
                    )
                    break
                executed.append((choice, option, execution, frag_span))

            if failure is not None:
                # Fragments that did execute are reported with their raw
                # demand — they never reached a queue because the attempt
                # was abandoned — just as each success is reported before
                # a later fragment raises.
                for choice, option, execution, frag_span in executed:
                    mw.note_execution(option, execution, t_dispatch)
                    self._end_dispatch(
                        trace, frag_span, t_dispatch + execution.observed_ms,
                        choice, option, execution,
                    )
                if isinstance(failure, SqlError):
                    # A type error in the query's own data is the query's
                    # fault, not the server's: fail it without a retry.
                    self._fail(handle, record, trace, root, t_dispatch, failure)
                    return
                last_error = failure
                excluded.add(failure.server)
                ii.patroller.note_server_failure(record, failure.server)
                obs.metrics.counter("ii_query_retries_total").inc()
                trace.event(
                    "retry",
                    t_dispatch,
                    server=failure.server,
                    attempt=retries,
                )
                elapsed += ii.failure_penalty_ms
                retries += 1
                t_attempt = t0 + elapsed
                yield Delay(ii.failure_penalty_ms)
                continue

            # Contend: push each fragment's raw demand through its
            # server's capacity queue; resume when the slowest finishes.
            # With hedging enabled each fragment races a timer-armed
            # backup at the next HRW-ranked replica; only the winner's
            # execution flows onward (runtime log, calibrator, merge).
            # With re-routing enabled each fragment may instead migrate
            # its unshipped batches to that replica when the calibration
            # epoch bumps mid-flight.
            if self.hedging is not None:
                backup_slots: Dict[int, tuple] = {}
                hedge_results = yield AllOf(
                    [
                        self._hedged_request(
                            slot, entry, t_dispatch, trace, backup_slots
                        )
                        for slot, entry in enumerate(executed)
                    ]
                )
                settled = self._settle_hedges(
                    executed, hedge_results, backup_slots, t_dispatch, trace
                )
            elif self.rerouting is not None:
                reroute_slots: Dict[int, tuple] = {}
                migration_results = yield AllOf(
                    [
                        self._migratable_request(
                            slot, entry, t_dispatch, trace, reroute_slots
                        )
                        for slot, entry in enumerate(executed)
                    ]
                )
                settled = self._settle_reroutes(
                    executed, migration_results, reroute_slots,
                    t_dispatch, trace,
                )
            else:
                completions = yield AllOf(
                    [
                        Work(
                            self._queue_for(option.server),
                            execution.observed_ms,
                            tag=self._span_tag(trace, frag_span),
                        )
                        for _, option, execution, frag_span in executed
                    ]
                )
                settled = [
                    (choice, option, execution, frag_span, completion,
                     completion.sojourn_ms, None)
                    for (choice, option, execution, frag_span), completion
                    in zip(executed, completions)
                ]

            outcomes: Dict[str, FragmentOutcome] = {}
            remote_ms = 0.0
            reroutes = 0
            for (
                choice, option, execution, frag_span, completion,
                effective_ms, extra,
            ) in settled:
                reroute = (
                    extra if isinstance(extra, RerouteSettle) else None
                )
                hedge = extra if reroute is None else None
                if reroute is not None:
                    reroutes += 1
                    # Calibrator discipline: the primary's raw
                    # demonstrated demand is reported unchanged — the
                    # migration must improve the query's latency without
                    # teaching QCC counterfactual per-server costs (see
                    # repro.fed.rerouting).  The outcome that flows to
                    # the merge carries the deterministically merged
                    # prefix + tail rows and the true end-to-end latency.
                    mw.note_execution(option, execution, t_dispatch)
                    inflated = dataclasses.replace(
                        execution,
                        rows=reroute.merged_rows,
                        observed_ms=effective_ms,
                    )
                else:
                    inflated = dataclasses.replace(
                        execution, observed_ms=effective_ms
                    )
                    mw.note_execution(option, inflated, t_dispatch)
                obs.metrics.histogram(
                    "sched_sojourn_ms", server=option.server
                ).observe(completion.sojourn_ms)
                obs.metrics.gauge(
                    "sched_queue_depth", server=option.server
                ).set(self._queue_for(option.server).depth)
                hedge_tags = (
                    dict(
                        hedged=True,
                        hedge_fired=True,
                        hedge_winner=hedge.winner,
                        backup_wins=hedge.winner == "backup",
                        hedge_wasted_ms=hedge.wasted_ms,
                    )
                    if hedge is not None and hedge.hedged
                    else {}
                )
                reroute_tags = (
                    dict(
                        rerouted=True,
                        reroute_to=reroute.target.server,
                        reroute_cut_row=reroute.cut_row,
                        reroute_wasted_ms=reroute.wasted_ms,
                    )
                    if reroute is not None
                    else {}
                )
                self._end_dispatch(
                    trace,
                    frag_span,
                    completion.finished_ms,
                    choice,
                    option,
                    inflated,
                    queue_wait_ms=completion.wait_ms,
                    service_ms=completion.service_ms,
                    sojourn_ms=completion.sojourn_ms,
                    depth_at_arrival=completion.depth_at_arrival,
                    **hedge_tags,
                    **reroute_tags,
                )
                outcomes[option.fragment.fragment_id] = FragmentOutcome(
                    option=option, execution=inflated
                )
                remote_ms = max(remote_ms, effective_ms)

            # II-side merge: computed locally, then charged to the
            # integrator's own capacity queue.
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
            merge_span = trace.begin_child(
                root, "merge", t_dispatch + remote_ms
            )
            try:
                merge_plan = build_merge_plan(decomposed, inputs)
                merge_result = execute_plan(
                    merge_plan, ii._merge_storage, ii.params, engine=ii.engine
                )
            except SqlError as exc:
                trace.end(
                    merge_span, t_dispatch + remote_ms, failed=True,
                    reason=str(exc),
                )
                self._fail(handle, record, trace, root, t_dispatch, exc)
                return
            level = ii.load.level(t_dispatch)
            merge_demand_ms = ii.profile.cpu_ms(
                merge_result.meter.cpu_ms
            ) * ii.contention.cpu_multiplier(level) + ii.profile.io_ms(
                merge_result.meter.io_ms
            ) * ii.contention.io_multiplier(level)
            merge_completion = yield Work(
                self.ii_queue,
                merge_demand_ms,
                tag=self._span_tag(trace, merge_span),
            )
            merge_ms = merge_completion.sojourn_ms
            trace.end(
                merge_span,
                merge_completion.finished_ms,
                estimated_total=chosen.merge_cost.total,
                observed_ms=merge_ms,
                rows=len(merge_result.rows),
                ii_load=level,
                engine=merge_result.engine,
            )
            obs.metrics.histogram("ii_merge_ms").observe(merge_ms)
            obs.metrics.histogram("ii_remote_ms").observe(remote_ms)
            obs.metrics.gauge(
                "sched_queue_depth", server=II_QUEUE
            ).set(self.ii_queue.depth)

            # The paper's response decomposition, with queue-inflated
            # components; the AllOf join resumes at max(fragment finish)
            # and the merge is submitted at that instant, so this equals
            # merge_completion.finished_ms - t0 up to float residue.
            response_ms = (t_dispatch - t0) + remote_ms + merge_ms

            if ii.qcc is not None:
                raw_estimate = (
                    max(c.calibrated.total for c in chosen.choices)
                    + chosen.merge_cost.total
                )
                ii.qcc.record_ii_execution(
                    estimated_total=raw_estimate,
                    observed_ms=remote_ms + merge_ms,
                    t_ms=t_dispatch,
                )

            result = FederatedResult(
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
                reroutes=reroutes,
            )
            ii.patroller.complete(record, t0 + response_ms)
            obs.metrics.histogram("ii_response_ms").observe(response_ms)
            obs.metrics.histogram(
                "query_sojourn_ms", klass=handle.klass
            ).observe(response_ms)
            obs.metrics.gauge("sched_in_flight").set(
                self.scheduler.live_processes - 1
            )
            # The root span carries the runtime's own latency ledger so
            # the flight recorder can decompose response_ms without
            # re-deriving any component (see obs.flight.decompose_trace).
            # It closes at the merge completion's own finish instant —
            # t0 + response_ms can sit one ulp past it, which would
            # leave the merge child span poking out of its parent.
            trace.end(
                root,
                merge_completion.finished_ms,
                status="completed",
                pre_dispatch_ms=t_dispatch - t0,
                remote_ms=remote_ms,
                merge_ms=merge_ms,
                response_ms=response_ms,
                retries=retries,
            )
            obs.tracer.finish(trace, merge_completion.finished_ms)
            if trace is not NULL_TRACE:
                result.trace = trace
                ii.explain_table.attach_trace(record.query_id, trace)
            profiler = get_profiler()
            if profiler is not NULL_PROFILER:
                result.profile = profiler.capture()
                ii.explain_table.attach_profile(
                    record.query_id, result.profile
                )
            handle.result = result
            return

        # Retries exhausted.  ``retries`` has overshot by one on exit: it
        # counts attempts (initial try included), not retries.
        message = (
            f"query failed after {ii.max_retries} retries"
            f" ({retries} attempts)"
            + (f": {last_error}" if last_error else "")
        )
        self._fail(
            handle, record, trace, root, t0 + elapsed,
            FederationError(message),
            server=last_error.server if last_error else None,
        )

    def _admit(self, handle: QueryHandle, record, trace, root) -> bool:
        """The admission front door: shed (and settle) the query, or
        count it admitted."""
        obs = get_obs()
        t0 = handle.submitted_ms
        decision = self.admission.decide(handle.klass, t0)
        trace.event(
            "admission",
            t0,
            admitted=decision.admitted,
            tokens_before=decision.tokens_before,
            predicted_ms=decision.predicted_ms,
            budget_ms=(
                None if math.isinf(decision.budget_ms)
                else decision.budget_ms
            ),
            reason=decision.reason or "admitted",
        )
        if not decision.admitted:
            self.integrator.patroller.shed(record, t0, decision.reason)
            obs.metrics.counter(
                "admission_shed_total",
                klass=handle.klass,
                reason=decision.reason,
            ).inc()
            trace.end(root, t0, status="shed", reason=decision.reason)
            obs.tracer.finish(trace, t0, status="shed")
            handle.shed = ShedVerdict(record=record, decision=decision)
            return False
        obs.metrics.counter(
            "admission_admitted_total", klass=handle.klass
        ).inc()
        return True

    def _fail(
        self, handle: QueryHandle, record, trace: QueryTrace, root,
        t_ms: float, error: Exception, server: Optional[str] = None,
    ) -> None:
        """Settle a failed query: patrol record, failure counter, trace,
        and the handle's error."""
        obs = get_obs()
        self.integrator.patroller.fail(record, t_ms, str(error), server=server)
        obs.metrics.counter("ii_query_failures_total").inc()
        root.annotate(status="failed", reason=str(error))
        obs.tracer.finish(trace, t_ms, status="failed")
        handle.error = error

    @staticmethod
    def _end_dispatch(
        trace: QueryTrace, frag_span, t_ms: float, choice, option, execution,
        **tags,
    ) -> None:
        """Close a fragment's dispatch span with its cost ledger."""
        estimated = option.estimated.total
        trace.end(
            frag_span,
            t_ms,
            server=option.server,
            estimated_total=estimated,
            calibrated_total=option.calibrated.total,
            calibration_factor=(
                option.calibrated.total / estimated if estimated > 0 else None
            ),
            observed_ms=execution.observed_ms,
            substituted=option.server != choice.server,
            engine=execution.engine,
            **tags,
        )
