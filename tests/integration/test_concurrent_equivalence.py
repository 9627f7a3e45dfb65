"""Concurrent runtime vs sequential integrator: equivalence + inflation.

The event scheduler must be a pure generalisation of the sequential
runtime: a single query routed through :class:`ConcurrentRuntime` meets
no contention, so every observable — rows, response decomposition,
routing, calibrator feedback — must be *bit-identical* to
``integrator.submit`` on an identically seeded federation.  Only under
actual overlap may observed times inflate, and then the inflation must
feed the calibrator.
"""

import pytest

import repro.obs as obs
from repro.fed import ConcurrentRuntime, DEFAULT_CLASSES, PriorityClass
from repro.fed.patroller import QueryStatus
from repro.harness import build_federation
from repro.sqlengine import BindError
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
