"""Feed a generated stream to the public federation API and record
what came back.

The same functions drive the timed pass (default engine) and the
answer oracle's row-engine twin, so both see identical inputs in
identical order.  Every query's outcome is reduced to
``(status, rows digest, virtual response_ms)``; rows are compared as a
multiset because none of the workload queries has an ORDER BY.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import DATA_SEED, STORM_HEDGE_AFTER_MS, Query, Stream

#: (status, rows digest, virtual response_ms or None)
Outcome = Tuple[str, str, Optional[float]]

#: Queries (or arrivals) between two host-speed probes.
PROBE_EVERY = 10


def reference_s() -> float:
    """Wall seconds of a fixed interpreter workload that no program change
    can touch (dict updates on tuple keys, then a sort): the yardstick
    for how fast the host runs Python right now."""
    began = perf_counter()
    totals: Dict[tuple, int] = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        totals[key] = totals.get(key, 0) + i
    sorted(totals.items(), key=lambda item: item[1])
    return perf_counter() - began


def probe() -> float:
    """One host-speed probe: the median of three reference runs."""
    return statistics.median(reference_s() for _ in range(3))


def rows_digest(rows: Sequence) -> str:
    canonical = "\n".join(sorted(repr(tuple(row)) for row in rows))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def build(workload: str, engine: Optional[str] = None):
    """The workload's deployment: ``build_federation()`` at BENCH_SCALE.

    Looked up through the module at call time, so a traced run sees the
    call.  *engine* is only ever set by the oracle's twin.
    """
    from repro.harness import deployment
    from repro.workload import BENCH_SCALE

    return deployment.build_federation(
        scale=BENCH_SCALE,
        seed=DATA_SEED,
        induced_load=workload == "storm-mix",
        engine=engine,
    )


@dataclass
class PassResult:
    """One pass over a stream: outcomes plus wall-clock measurements."""

    warmup: List[Outcome]
    outcomes: List[Outcome]
    #: per-query wall seconds: each ``submit`` call (sequential) or each
    #: arrival's event-loop slice, writes due before it included (storm)
    costs_s: List[float]
    #: per-query wall seconds of the writes inside ``costs_s``
    writes_s: List[float]
    #: host-speed probes, taken before every PROBE_EVERY-th query and
    #: after the last one (outside ``costs_s``)
    probes_s: List[float]
    #: wall seconds of the event loop's drain after the last arrival
    drain_s: float = 0.0
    #: storm-mix only: the runtime, for per-layer counters
    runtime: object = None

    @property
    def wall_s(self) -> float:
        """Wall seconds the pass spent in the program (probes excluded)."""
        return sum(self.costs_s) + self.drain_s


def _sequential(integrator, queries: Sequence[Query], probed: bool = False):
    """Closed loop, one client: ``submit`` back to back."""
    raw = []
    latencies = []
    probes = []
    submit = integrator.submit
    for index, query in enumerate(queries):
        if probed and index % PROBE_EVERY == 0:
            probes.append(probe())
        began = perf_counter()
        try:
            result = submit(query.sql, label=query.label)
        except Exception as exc:  # a failed query is an outcome, not a crash
            raw.append((f"error:{type(exc).__name__}", None, None))
        else:
            raw.append(("completed", result.rows, result.response_ms))
        latencies.append(perf_counter() - began)
    if probed:
        probes.append(probe())
    outcomes = [
        (status, rows_digest(rows) if rows is not None else "", response)
        for status, rows, response in raw
    ]
    return outcomes, latencies, probes


def _storm(deployment, stream: Stream, hedge_after_ms: float):
    """Open loop on the virtual clock through ``ConcurrentRuntime``.

    The event loop is stepped arrival by arrival: each slice runs the
    events due since the previous arrival, the writes scheduled before
    this one, and the arrival's own admission, compile and dispatch.
    After the last arrival the loop drains.
    """
    from repro.fed.concurrent import ConcurrentRuntime

    runtime = ConcurrentRuntime(
        deployment.integrator, hedge_after_ms=hedge_after_ms
    )
    base = runtime.scheduler.now
    writes: Dict[int, List[str]] = {}
    for write in stream.writes:
        writes.setdefault(write.before, []).append(write.sql)
    servers = [deployment.servers[name] for name in sorted(deployment.servers)]
    costs = []
    writes_s = []
    probes = []
    for index, query in enumerate(stream.queries):
        if index % PROBE_EVERY == 0:
            probes.append(probe())
        t_ms = base + query.t_ms
        began = perf_counter()
        runtime.run(until_ms=t_ms)
        write_s = 0.0
        statements = writes.get(index)
        if statements:
            write_began = perf_counter()
            for sql in statements:
                for server in servers:
                    server.execute_dml(sql, t_ms)
            write_s = perf_counter() - write_began
        runtime.submit_at(t_ms, query.sql, klass=query.klass, label=query.label)
        runtime.run(until_ms=t_ms)
        costs.append(perf_counter() - began)
        writes_s.append(write_s)
    probes.append(probe())
    drain_began = perf_counter()
    runtime.run()
    drain_s = perf_counter() - drain_began
    outcomes: List[Outcome] = []
    for handle in runtime.handles:
        status = handle.status
        if status == "completed":
            outcomes.append(
                (status, rows_digest(handle.result.rows), handle.response_ms)
            )
        elif status == "failed":
            outcomes.append((f"error:{type(handle.error).__name__}", "", None))
        else:
            outcomes.append((status, "", None))
    return outcomes, costs, writes_s, probes, drain_s, runtime


def run_pass(deployment, stream: Stream, before_pass=None) -> PassResult:
    """Warm up, then run the stream's timed pass on *deployment*.

    *before_pass* is called between the two (the traced run starts
    recording there).
    """
    warmup, _, _ = _sequential(deployment.integrator, stream.warmup)
    if before_pass is not None:
        before_pass()
    if stream.workload == "storm-mix":
        outcomes, costs, writes_s, probes, drain_s, runtime = _storm(
            deployment, stream, STORM_HEDGE_AFTER_MS
        )
        return PassResult(
            warmup, outcomes, costs, writes_s, probes, drain_s, runtime
        )
    outcomes, costs, probes = _sequential(
        deployment.integrator, stream.queries, probed=True
    )
    return PassResult(warmup, outcomes, costs, [0.0] * len(costs), probes)


def compare(expected: Sequence[Outcome], actual: Sequence[Outcome]) -> List[int]:
    """Indexes whose status, rows or virtual response time differ."""
    if len(expected) != len(actual):
        longer = max(len(expected), len(actual))
        shorter = min(len(expected), len(actual))
        mismatched = list(range(shorter, longer))
    else:
        mismatched = []
    for index, (want, got) in enumerate(zip(expected, actual)):
        if tuple(want) != tuple(got):
            mismatched.append(index)
    return sorted(mismatched)
