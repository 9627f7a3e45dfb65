"""Concurrent runtime vs sequential integrator: equivalence + inflation.

There is one query lifecycle: ``integrator.submit`` runs its query as
the only query of a private :class:`ConcurrentRuntime`, so the
single-query tests below compare the runtime coroutine with itself,
entered through its two doors (``submit`` and ``submit_at``).  What pins
the lifecycle's behaviour to the paper's sequential model is the golden
digest in ``test_sequential_lifecycle_digest.py``.  A lone query meets
no contention, so every observable — rows, response decomposition,
routing, calibrator feedback — must be *bit-identical* between the two
doors on an identically seeded federation.  Only under actual overlap
may observed times inflate, and then the inflation must feed the
calibrator.  A query that fails on its own SQL, at compile or at
execution, fails alone.
"""

import pytest

import repro.obs as obs
from repro.fed import ConcurrentRuntime, DEFAULT_CLASSES, PriorityClass
from repro.fed.patroller import QueryStatus
from repro.harness import build_federation
from repro.sqlengine import BindError, TypeMismatchError
from repro.workload import TEST_SCALE, build_workload
from repro.workload.queries import QT1, QT3

# Concurrency is an II-side concern: the same physical data backs the
# sequential reference and the concurrent run.


@pytest.fixture()
def make_deployment(sample_databases):
    def factory():
        return build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )

    return factory


class TestSingleQueryEquivalence:
    @pytest.mark.parametrize("discipline", ["ps", "fifo"])
    def test_single_query_is_bit_identical(
        self, make_deployment, discipline
    ):
        for instance in build_workload(instances_per_type=1):
            sequential = make_deployment()
            reference = sequential.integrator.submit(
                instance.sql, label=instance.label
            )

            concurrent = make_deployment()
            runtime = ConcurrentRuntime(
                concurrent.integrator, discipline=discipline
            )
            handle = runtime.submit_at(0.0, instance.sql, klass="gold")
            runtime.run()

            result = handle.result
            assert result is not None, handle.error
            # Exact equality, not approx: an uncontended queue must add
            # zero float residue to any observable.
            assert result.rows == reference.rows
            assert result.response_ms == reference.response_ms
            assert result.remote_ms == reference.remote_ms
            assert result.merge_ms == reference.merge_ms
            assert result.retries == reference.retries
            assert result.plan.servers == reference.plan.servers

    def test_single_query_calibrator_feedback_is_bit_identical(
        self, make_deployment
    ):
        instance = QT3.instance(0)

        sequential = make_deployment()
        sequential.integrator.submit(instance.sql)

        concurrent = make_deployment()
        runtime = ConcurrentRuntime(concurrent.integrator)
        runtime.submit_at(0.0, instance.sql, klass="gold")
        runtime.run()

        seq_log = sequential.meta_wrapper.runtime_log
        conc_log = concurrent.meta_wrapper.runtime_log
        assert [
            (e.server, e.fragment_signature, e.observed_ms, e.estimated_total)
            for e in seq_log
        ] == [
            (e.server, e.fragment_signature, e.observed_ms, e.estimated_total)
            for e in conc_log
        ]

    def test_sequential_runs_unaffected_by_scheduler_import(
        self, make_deployment
    ):
        """Two identically seeded sequential submits bracket a
        concurrent run: the scheduler must leave no global state."""
        instance = QT1.instance(0)
        before = make_deployment().integrator.submit(instance.sql)

        runtime = ConcurrentRuntime(make_deployment().integrator)
        runtime.submit_at(0.0, instance.sql, klass="gold")
        runtime.run()

        after = make_deployment().integrator.submit(instance.sql)
        assert before.response_ms == after.response_ms
        assert before.rows == after.rows


class TestCompileFaultIsolation:
    def test_bad_sql_fails_alone_beside_valid_queries(self, make_deployment):
        """A query that fails to bind fails its own handle only: no
        retry, no server blamed, and its neighbours run exactly as if
        it had never been submitted."""
        valid = (QT1.instance(0).sql, QT3.instance(0).sql)

        def run(with_bad: bool):
            runtime = ConcurrentRuntime(make_deployment().integrator)
            handles = [runtime.submit_at(0.0, valid[0], klass="gold")]
            bad = None
            if with_bad:
                bad = runtime.submit_at(0.0, "SELECT * FROM nope", klass="gold")
            handles.append(runtime.submit_at(0.0, valid[1], klass="gold"))
            runtime.run()
            return runtime, handles, bad

        _, reference, _ = run(with_bad=False)
        obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            runtime, neighbours, bad = run(with_bad=True)
        finally:
            obs.disable()

        assert bad.status == "failed"
        assert isinstance(bad.error, BindError)
        assert runtime.failures() == [bad]
        (record,) = [
            r for r in runtime.integrator.patroller.records()
            if r.sql == bad.sql
        ]
        assert record.status is QueryStatus.FAILED
        assert record.failed_servers == []
        assert record.completed_ms is not None
        roots = [s for s in bad.trace.spans if s.name == "query"]
        assert [r.attributes["status"] for r in roots] == ["failed"]
        for got, want in zip(neighbours, reference):
            assert got.status == "completed"
            assert got.result.rows == want.result.rows
            assert got.response_ms == want.response_ms
            assert got.result.retries == 0


class TestExecuteFaultIsolation:
    def test_type_error_fails_alone_beside_valid_queries(
        self, make_deployment
    ):
        """A query whose predicate compares a number with a string binds
        and compiles, then fails while its fragment executes.  It fails
        its own handle only: no retry, no server blamed, its patrol
        record and trace settled, and its neighbours run exactly as if
        it had never been submitted."""
        valid = (QT1.instance(0).sql, QT1.instance(1).sql)
        bad_sql = "SELECT o.orderkey FROM orders o WHERE o.totalprice > 'abc'"

        def run(with_bad: bool):
            runtime = ConcurrentRuntime(make_deployment().integrator)
            handles = [runtime.submit_at(0.0, valid[0], klass="gold")]
            bad = None
            if with_bad:
                bad = runtime.submit_at(0.0, bad_sql, klass="gold")
            handles.append(runtime.submit_at(0.0, valid[1], klass="gold"))
            runtime.run()
            return runtime, handles, bad

        _, reference, _ = run(with_bad=False)
        obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            runtime, neighbours, bad = run(with_bad=True)
            retries = obs.get_obs().metrics.counter_value(
                "ii_query_retries_total"
            )
        finally:
            obs.disable()

        assert bad.status == "failed"
        assert isinstance(bad.error, TypeMismatchError)
        assert runtime.failures() == [bad]
        assert retries == 0
        (record,) = [
            r for r in runtime.integrator.patroller.records()
            if r.sql == bad.sql
        ]
        assert record.status is QueryStatus.FAILED
        assert record.failed_servers == []
        assert record.completed_ms is not None
        assert bad.trace.status == "failed"
        roots = [s for s in bad.trace.spans if s.name == "query"]
        assert [r.attributes["status"] for r in roots] == ["failed"]
        for got, want in zip(neighbours, reference):
            assert got.status == "completed"
            assert got.result.rows == want.result.rows
            assert got.response_ms == want.response_ms


class TestLoneQuery:
    def test_fragments_on_one_server_do_not_contend(self, make_deployment):
        """``submit`` runs a query's fragments side by side: two
        fragments routed to one server never queue behind each other,
        and the remote phase is the slower of the two."""
        sql = (
            "SELECT COUNT(*) AS n FROM customer c, product p "
            "WHERE c.custkey < 5 AND p.prodkey < 5"
        )
        integrator = make_deployment().integrator
        obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            result = integrator.submit(sql)
        finally:
            obs.disable()
        servers = [c.server for c in result.plan.choices]
        assert len(servers) == 2 and len(set(servers)) == 1
        dispatches = result.trace.find("dispatch")
        assert len(dispatches) == 2
        for span in dispatches:
            assert span.attributes["depth_at_arrival"] == 1
            assert span.attributes["queue_wait_ms"] == 0.0
            assert span.attributes["sojourn_ms"] == span.attributes["service_ms"]
        assert result.remote_ms == max(
            span.attributes["observed_ms"] for span in dispatches
        )

    def test_sequential_trace_decomposes_exactly(self, make_deployment):
        """A traced ``submit`` carries the runtime's root span, so the
        flight recorder answers "why was this query slow?" for it too."""
        from repro.obs.flight import decompose_trace

        integrator = make_deployment().integrator
        obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            result = integrator.submit(QT3.instance(0).sql)
        finally:
            obs.disable()
        ledger = decompose_trace(result.trace)
        assert ledger["status"] == "completed"
        assert ledger["exact"] is True
        assert ledger["total_ms"] == result.response_ms
        assert ledger["admission_ms"] == 0.0

    def test_submit_passes_no_admission(self, make_deployment):
        integrator = make_deployment().integrator
        sink = obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            result = integrator.submit(QT1.instance(0).sql)
            counters = sink.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters
        assert not [name for name in counters if name.startswith("admission")]
        assert result.trace.find("admission") == []


class TestContentionInflation:
    def test_overlapping_queries_inflate_observed_latency(
        self, make_deployment
    ):
        instance = QT3.instance(0)

        solo = make_deployment()
        runtime = ConcurrentRuntime(solo.integrator)
        baseline = runtime.submit_at(0.0, instance.sql, klass="gold")
        runtime.run()

        crowded = make_deployment()
        runtime = ConcurrentRuntime(crowded.integrator)
        handles = [
            runtime.submit_at(0.0, instance.sql, klass="gold")
            for _ in range(8)
        ]
        runtime.run()

        assert all(h.result is not None for h in handles)
        slowest = max(h.result.response_ms for h in handles)
        assert slowest > baseline.result.response_ms
        # The inflation reached the calibrator's input log, not just
        # the client-visible response times.
        observed = [e.observed_ms for e in crowded.meta_wrapper.runtime_log]
        solo_observed = [
            e.observed_ms for e in solo.meta_wrapper.runtime_log
        ]
        assert max(observed) > max(solo_observed)

    def test_run_is_replayable(self, make_deployment):
        def drive():
            deployment = make_deployment()
            runtime = ConcurrentRuntime(deployment.integrator)
            instance = QT3.instance(0)
            handles = [
                runtime.submit_at(i * 5.0, instance.sql, klass="silver")
                for i in range(6)
            ]
            runtime.run()
            return [(h.status, h.response_ms) for h in handles]

        assert drive() == drive()

    def test_sheds_require_exhausted_headroom(self, make_deployment):
        """A tight lowest-class budget under heavy overlap sheds — and
        every shed verdict carries evidence that survives the audit."""
        classes = DEFAULT_CLASSES[:2] + (
            PriorityClass("batch", rank=2, weight=0.3, budget_ms=5.0),
        )
        deployment = make_deployment()
        runtime = ConcurrentRuntime(deployment.integrator, classes=classes)
        instance = QT3.instance(0)
        for i in range(10):
            runtime.submit_at(float(i), instance.sql, klass="batch")
        runtime.run()
        sheds = runtime.sheds()
        assert sheds, "a 5 ms budget under overlap must shed"
        assert all(h.shed.reason == "budget-exhausted" for h in sheds)
        from repro.fed.admission import shed_violations

        assert shed_violations(runtime.admission.decisions) == []
