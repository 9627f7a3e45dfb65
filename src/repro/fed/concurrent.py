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
from dataclasses import dataclass, field
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
    Completion,
    Delay,
    EventScheduler,
    RemoteExecution,
    SecondLegOutcome,
    SecondLegWork,
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
    Checkpoint,
    ReroutePolicy,
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


#: Replicas within (1 + band) x the cheapest cost may take a fragment's
#: second leg: the Section 4.1 exchangeability rule.
SECOND_LEG_BAND = 0.2


def _no_disarm() -> None:
    """Disarm for a trigger that needs no withdrawal."""


@dataclass
class _Leg:
    """A fired second leg: the replica's option, its execution there and
    its span (plus, for a re-route, the primary's checkpoint)."""

    option: FragmentOption
    execution: RemoteExecution
    span: object
    point: Optional[Checkpoint] = None


@dataclass
class _Fragment:
    """One dispatched fragment: its compile-time choice, the option and
    execution run at dispatch, its dispatch span, and its second leg
    once one has fired."""

    choice: FragmentOption
    option: FragmentOption
    execution: RemoteExecution
    span: object
    leg: Optional[_Leg] = None


@dataclass(frozen=True)
class _Settled:
    """A fragment whose dispatch has settled."""

    #: The option whose rows flow on to the merge.
    option: FragmentOption
    completion: Completion
    #: The fragment's latency as the query saw it.
    effective_ms: float
    #: The execution reported to the calibrator.
    reported: RemoteExecution
    #: The execution that flows on to the merge.
    execution: RemoteExecution
    #: Second-leg attributes for the dispatch span.
    tags: Dict[str, object] = field(default_factory=dict)
    rerouted: bool = False


class _Dispatch:
    """Fragment dispatch without a second leg: the primary alone."""

    def __init__(self, runtime: "ConcurrentRuntime"):
        self.runtime = runtime

    def primary(self, fragment: _Fragment, trace: QueryTrace) -> Work:
        """The fragment's raw demand at its server's capacity queue."""
        runtime = self.runtime
        return Work(
            runtime._queue_for(fragment.option.server),
            fragment.execution.observed_ms,
            tag=runtime._span_tag(trace, fragment.span),
        )

    def request(self, fragment: _Fragment, trace: QueryTrace) -> object:
        return self.primary(fragment, trace)

    def settle(
        self, fragment: _Fragment, completion: Completion,
        t_dispatch: float, trace: QueryTrace,
    ) -> _Settled:
        inflated = dataclasses.replace(
            fragment.execution, observed_ms=completion.sojourn_ms
        )
        return _Settled(
            fragment.option, completion, completion.sojourn_ms,
            inflated, inflated,
        )


class _SecondLeg(_Dispatch):
    """Dispatch with a second leg to the next HRW-ranked replica.

    The fire step is shared (:meth:`replica`, :meth:`launch`); each
    subclass owns its trigger and pre-fire gate (in :meth:`request`),
    the leg's demand (:meth:`demand`) and its settle accounting
    (:meth:`settle`).
    """

    #: Name of the leg's child span under the dispatch span.
    span_name: str
    #: Counter bumped, per target server, when a leg fires.
    fired_metric: str

    def __init__(self, runtime: "ConcurrentRuntime", policy):
        super().__init__(runtime)
        self.policy = policy

    def decline(self, reason: str) -> None:
        """Account for a fire that sent no leg (hedges stay silent)."""

    def demand(self, leg: _Leg) -> float:
        """The leg's service demand at its target."""
        return leg.execution.observed_ms

    def replica(
        self, fragment: _Fragment, t_fire: float
    ) -> Optional[FragmentOption]:
        """The replica the second leg should target.

        Candidates are the fragment's compile-time siblings with an
        *identical* plan on a different server, near the cluster's
        cheapest cost (:data:`SECOND_LEG_BAND`), walked in HRW rank
        order: the target is the highest-ranked exchangeable replica
        believed available at the instant the leg fires.
        """
        primary = fragment.option
        integrator = self.runtime.integrator
        qcc = integrator.qcc
        matches = [
            option
            for option in integrator.meta_wrapper.sibling_options(
                primary.fragment.signature
            )
            if option.server != primary.server
            and option.plan_signature == primary.plan_signature
            and option.is_viable
        ]
        if matches:
            cheapest = min(
                [o.calibrated.total for o in matches]
                + [primary.calibrated.total]
            )
            by_server: Dict[str, FragmentOption] = {}
            for option in matches:
                if option.calibrated.total <= cheapest * (
                    1.0 + SECOND_LEG_BAND
                ):
                    by_server.setdefault(option.server, option)
            for server in rank_servers(
                primary.fragment.signature, sorted(by_server)
            ):
                if qcc is None or qcc.is_available(server, t_fire):
                    return by_server[server]
        self.decline("no-replica")
        return None

    def launch(
        self,
        fragment: _Fragment,
        trace: QueryTrace,
        t_fire: float,
        target: FragmentOption,
        point: Optional[Checkpoint] = None,
        **span_attrs,
    ) -> Optional[Work]:
        """Fire the leg at *target*: learn its demand by executing the
        fragment there (``report=False``: a second leg never feeds the
        calibrator), open its span and count it."""
        runtime = self.runtime
        try:
            target, execution = runtime.integrator.meta_wrapper.execute_option(
                target, t_fire, allow_substitution=False, report=False
            )
        except ServerUnavailable:
            self.decline("target-down")
            return None
        # The leg's queue lifecycle (queue_wait / service, or a cancelled
        # slice) hangs off this span, inside the fragment's dispatch span.
        span = trace.begin_child(
            fragment.span,
            self.span_name,
            t_fire,
            fragment=fragment.choice.fragment.fragment_id,
            primary=fragment.option.server,
            server=target.server,
            **span_attrs,
            fired_ms=t_fire,
        )
        fragment.leg = leg = _Leg(target, execution, span, point)
        get_obs().metrics.counter(
            self.fired_metric, server=target.server
        ).inc()
        return Work(
            runtime._queue_for(target.server),
            self.demand(leg),
            tag=runtime._span_tag(trace, span),
        )


class _Hedging(_SecondLeg):
    """Hedged dispatch: a timer fires a backup; the first completion wins.

    The backup's replica, availability, fanout cap and demand all
    reflect the state at the instant the timer fires.
    """

    span_name = "hedge_backup"
    fired_metric = "hedge_fired_total"

    def request(self, fragment: _Fragment, trace: QueryTrace) -> SecondLegWork:
        policy: HedgePolicy = self.policy
        after_ms = policy.hedge_after(
            generalize_signature(fragment.option.fragment.signature)
        )
        scheduler = self.runtime.scheduler

        def arm(fire):
            # The timer stays on the heap after the primary settles: it
            # fires into a settled request, and run() still advances the
            # clock to it.
            scheduler.call_later(after_ms, fire)
            return _no_disarm

        def build(t_fire: float, _consumed_ms: float) -> Optional[Work]:
            target = self.replica(fragment, t_fire)
            if target is None:
                return None
            queue = self.runtime._queue_for(target.server)
            if not policy.allow_backup(queue.depth):
                policy.suppressed += 1
                get_obs().metrics.counter(
                    "hedge_suppressed_total", server=target.server
                ).inc()
                return None
            return self.launch(fragment, trace, t_fire, target)

        return SecondLegWork(
            self.primary(fragment, trace), arm, build, race=True
        )

    def settle(
        self, fragment: _Fragment, outcome: SecondLegOutcome,
        t_dispatch: float, trace: QueryTrace,
    ) -> _Settled:
        """Resolve the race to the winner's option and execution and
        account for the cancelled loser."""
        policy: HedgePolicy = self.policy
        completion = outcome.completion
        option, execution = fragment.option, fragment.execution
        effective_ms = completion.sojourn_ms
        winner = "backup" if outcome.leg_won else "primary"
        wasted_ms = outcome.cancelled_ms
        tags: Dict[str, object] = {}
        if outcome.fired:
            leg = fragment.leg
            loser = leg.option
            if outcome.leg_won:
                loser, option, execution = option, leg.option, leg.execution
                # The query's real fragment latency includes the hedge
                # wait before the backup was even fired.
                effective_ms = completion.finished_ms - t_dispatch
                get_obs().metrics.counter(
                    "hedge_backup_wins_total", server=option.server
                ).inc()
            self.runtime.integrator.meta_wrapper.note_hedge_waste(
                loser, wasted_ms, completion.finished_ms
            )
            trace.end(
                leg.span, completion.finished_ms,
                winner=winner, wasted_ms=wasted_ms,
            )
            tags = dict(
                hedged=True,
                hedge_fired=True,
                hedge_winner=winner,
                backup_wins=outcome.leg_won,
                hedge_wasted_ms=wasted_ms,
            )
        policy.note_outcome(outcome.fired, winner, wasted_ms)
        policy.observe(
            generalize_signature(option.fragment.signature), effective_ms
        )
        inflated = dataclasses.replace(execution, observed_ms=effective_ms)
        return _Settled(
            option, completion, effective_ms, inflated, inflated, tags
        )


class _Rerouting(_SecondLeg):
    """Mid-query re-routing: a calibration-epoch bump (availability flips
    bump it too) checkpoints the consumed batches and moves the
    unshipped tail to the replica, cancelling the primary."""

    span_name = "reroute"
    fired_metric = "reroute_fired_total"

    def decline(self, reason: str) -> None:
        self.policy.note_declined(reason)
        get_obs().metrics.counter(
            "reroute_declined_total", reason=reason
        ).inc()

    def demand(self, leg: _Leg) -> float:
        """Only the unshipped tail moves."""
        return tail_demand_ms(leg.execution, leg.point.cut_row)

    def request(self, fragment: _Fragment, trace: QueryTrace) -> SecondLegWork:
        policy: ReroutePolicy = self.policy
        epoch = self.runtime.integrator.calibration_epoch
        schedule = batch_schedule(fragment.execution, policy.config.batch_rows)

        def arm(fire):
            if epoch is None or len(schedule) <= 1:
                # A single-batch fragment has no boundary to move at.
                return _no_disarm
            return epoch.subscribe(lambda _value: fire())

        def build(t_fire: float, consumed_ms: float) -> Optional[Work]:
            point = policy.checkpoint(schedule, consumed_ms)
            if not policy.should_migrate(schedule, point):
                self.decline("drained")
                return None
            target = self.replica(fragment, t_fire)
            if target is None:
                return None
            return self.launch(
                fragment, trace, t_fire, target, point,
                cut_row=point.cut_row,
                batches_kept=point.batches_kept,
            )

        return SecondLegWork(
            self.primary(fragment, trace), arm, build, race=False
        )

    def settle(
        self, fragment: _Fragment, outcome: SecondLegOutcome,
        t_dispatch: float, trace: QueryTrace,
    ) -> _Settled:
        """Merge a moved fragment's partial results and account for the
        cancelled primary."""
        completion = outcome.completion
        if not outcome.fired:
            return super().settle(fragment, completion, t_dispatch, trace)
        leg = fragment.leg
        point = leg.point
        execution = fragment.execution
        # The fragment's real latency spans primary dispatch through the
        # moved tail's completion.
        effective_ms = completion.finished_ms - t_dispatch
        merged_rows = merge_partial_rows(
            execution.rows, leg.execution.rows, point.cut_row
        )
        migrated_rows = execution.row_count - point.cut_row
        wasted_ms = max(0.0, outcome.cancelled_ms - point.kept_demand_ms)
        self.policy.note_fired(migrated_rows, wasted_ms)
        self.runtime.integrator.meta_wrapper.note_reroute(
            fragment.option,
            leg.option,
            cut_row=point.cut_row,
            wasted_ms=wasted_ms,
            t_ms=completion.finished_ms,
        )
        trace.end(
            leg.span,
            completion.finished_ms,
            migrated_rows=migrated_rows,
            wasted_ms=wasted_ms,
        )
        # Calibrator discipline: the primary's raw demonstrated demand is
        # reported unchanged, so the move improves the query's latency
        # without teaching QCC counterfactual per-server costs (see
        # repro.fed.rerouting).  What flows to the merge carries the
        # merged prefix + tail rows and the true end-to-end latency.
        return _Settled(
            fragment.option,
            completion,
            effective_ms,
            execution,
            dataclasses.replace(
                execution, rows=merged_rows, observed_ms=effective_ms
            ),
            dict(
                rerouted=True,
                reroute_to=leg.option.server,
                reroute_cut_row=point.cut_row,
                reroute_wasted_ms=wasted_ms,
            ),
            rerouted=True,
        )


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
    byte-identical to the non-rerouting code path.  Hedging and
    re-routing are mutually exclusive: each is a way to send a
    fragment's one second leg (see :class:`_SecondLeg`).
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
        if self.hedging is not None:
            self._dispatch: _Dispatch = _Hedging(self, self.hedging)
        elif self.rerouting is not None:
            self._dispatch = _Rerouting(self, self.rerouting)
        else:
            self._dispatch = _Dispatch(self)
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
        runtime._dispatch = _Dispatch(runtime)
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
            executed: List[_Fragment] = []
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
                executed.append(
                    _Fragment(choice, option, execution, frag_span)
                )

            if failure is not None:
                # Fragments that did execute are reported with their raw
                # demand — they never reached a queue because the attempt
                # was abandoned — just as each success is reported before
                # a later fragment raises.
                for fragment in executed:
                    mw.note_execution(
                        fragment.option, fragment.execution, t_dispatch
                    )
                    self._end_dispatch(
                        trace, fragment,
                        t_dispatch + fragment.execution.observed_ms,
                        fragment.option, fragment.execution,
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
            # With hedging or re-routing on, each fragment may also send
            # a second leg to the next HRW-ranked replica; only what its
            # settle returns flows onward (runtime log, calibrator, merge).
            results = yield AllOf(
                [self._dispatch.request(f, trace) for f in executed]
            )
            settled = [
                self._dispatch.settle(fragment, result, t_dispatch, trace)
                for fragment, result in zip(executed, results)
            ]

            outcomes: Dict[str, FragmentOutcome] = {}
            remote_ms = 0.0
            for fragment, done in zip(executed, settled):
                completion = done.completion
                server = done.option.server
                mw.note_execution(done.option, done.reported, t_dispatch)
                obs.metrics.histogram(
                    "sched_sojourn_ms", server=server
                ).observe(completion.sojourn_ms)
                obs.metrics.gauge(
                    "sched_queue_depth", server=server
                ).set(self._queue_for(server).depth)
                self._end_dispatch(
                    trace,
                    fragment,
                    completion.finished_ms,
                    done.option,
                    done.execution,
                    queue_wait_ms=completion.wait_ms,
                    service_ms=completion.service_ms,
                    sojourn_ms=completion.sojourn_ms,
                    depth_at_arrival=completion.depth_at_arrival,
                    **done.tags,
                )
                outcomes[done.option.fragment.fragment_id] = FragmentOutcome(
                    option=done.option, execution=done.execution
                )
                remote_ms = max(remote_ms, done.effective_ms)

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
                reroutes=sum(done.rerouted for done in settled),
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
        trace: QueryTrace, fragment: _Fragment, t_ms: float, option,
        execution, **tags,
    ) -> None:
        """Close a fragment's dispatch span with its cost ledger."""
        estimated = option.estimated.total
        trace.end(
            fragment.span,
            t_ms,
            server=option.server,
            estimated_total=estimated,
            calibrated_total=option.calibrated.total,
            calibration_factor=(
                option.calibrated.total / estimated if estimated > 0 else None
            ),
            observed_ms=execution.observed_ms,
            substituted=option.server != fragment.choice.server,
            engine=execution.engine,
            **tags,
        )
