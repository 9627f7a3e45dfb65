"""Golden digest of the sequential query lifecycle.

``InformationIntegrator.submit`` is hashed end to end over three groups
of queries: the paper's QT1–QT5 instances (with and without QCC, and at
explicit submit times behind the clock) plus a two-fragment cross
product, outage schedules that force
retries and exhaust them, and user SQL errors (bind, parse, type).  The
digest covers every observable a refactor of the lifecycle could move:
rows, the response decomposition, retries, the patrol records, the
calibrator's runtime log and the integrator clock after every submit.
It was recorded before ``submit`` ran through the runtime coroutine, so
it must never move.
"""

import hashlib

from repro.harness import build_federation
from repro.sim import OutageSchedule
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES, QT1, QT3

#: sha256 of the three query groups below, recorded with the sequential
#: lifecycle as its own copy of compile → route → dispatch → merge.
GOLDEN_SEQUENTIAL_LIFECYCLE_DIGEST = (
    "3445c7c77f346cdd0e333f51005e1e671de936a6804b87edeee55b916fac6b82"
)

#: Two unjoined relations: two fragments, both routed to one server.
CROSS_PRODUCT = (
    "SELECT COUNT(*) AS n FROM customer c, product p "
    "WHERE c.custkey < 5 AND p.prodkey < 5"
)

#: Bind, parse and execute-time type errors: each fails its query alone.
USER_ERRORS = (
    "SELECT * FROM nope",
    "SELEC orderkey FROM orders",
    "SELECT o.orderkey FROM orders o WHERE o.totalprice > 'abc'",
)


def _submit_all(digest, deployment, submits) -> None:
    """Submit each ``(sql, label, t_ms)`` and hash what it left behind."""
    integrator = deployment.integrator
    for sql, label, t_ms in submits:
        try:
            result = integrator.submit(sql, label=label, t_ms=t_ms)
        except Exception as exc:  # a failed query is an outcome here
            digest.update(f"error {type(exc).__name__}: {exc}\n".encode())
        else:
            digest.update(f"{sorted(map(repr, result.rows))}\n".encode())
            times = " ".join(
                float.hex(value)
                for value in (
                    result.response_ms, result.remote_ms, result.merge_ms
                )
            )
            digest.update(f"{times} retries={result.retries}\n".encode())
        digest.update(f"clock {float.hex(deployment.clock.now)}\n".encode())
    for record in integrator.patroller.records():
        completed = (
            None if record.completed_ms is None
            else float.hex(record.completed_ms)
        )
        digest.update(
            f"{record.status.name} {record.failed_servers} {completed}"
            f" {record.error}\n".encode()
        )
    for entry in deployment.meta_wrapper.runtime_log:
        digest.update(
            f"{entry.server} {entry.fragment_signature} "
            f"{float.hex(entry.observed_ms)}\n".encode()
        )


def _lifecycle_digest(sample_databases) -> str:
    digest = hashlib.sha256()

    def deployment(**kwargs):
        return build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases, **kwargs
        )

    instances = [
        (template.instance(i).sql, template.name, None)
        for i in range(2)
        for template in EXTENDED_QUERY_TYPES
    ]
    # QT1–QT5 with QCC routing, a cross product whose two fragments
    # both run on one server (side by side, never contending with each
    # other), then two submits stamped behind the clock (the clock must
    # not move for them); then the plain router.
    _submit_all(
        digest,
        deployment(),
        instances + [(CROSS_PRODUCT, None, None),
                     (QT3.instance(0).sql, "QT3", 0.0),
                     (QT1.instance(1).sql, "QT1", 5.0)],
    )
    _submit_all(digest, deployment(with_qcc=False), instances[:5])

    # Outages begin after compile (t=0) and before dispatch (t=2), so
    # the chosen server fails at dispatch: one server down for good
    # fails over with a retry (or, allowed none, exhausts its retries),
    # seeded transient errors retry, and with every server down the
    # retry finds no viable server.
    outage = instances[:4] + [(QT3.instance(1).sql, "QT3", None)]
    s3_down = {"S3": OutageSchedule([(1.0, 1e12)])}
    for availability, error_seeds, max_retries in (
        (s3_down, None, 3),
        (s3_down, None, 0),
        ({"S1": OutageSchedule([(1.0, 1e12)])}, None, 3),
        (None, {"S1": 0.5, "S2": 0.5, "S3": 0.2}, 3),
        (
            {
                server: OutageSchedule([(1.0, 5_000.0)])
                for server in ("S1", "S2", "S3")
            },
            None,
            3,
        ),
    ):
        faulty = deployment(availability=availability, error_seeds=error_seeds)
        faulty.integrator.max_retries = max_retries
        _submit_all(digest, faulty, outage)

    # User errors between valid queries: each fails alone.
    valid = QT1.instance(0).sql
    _submit_all(
        digest,
        deployment(),
        [(sql, None, None) for bad in USER_ERRORS for sql in (valid, bad)]
        + [(valid, None, None)],
    )
    return digest.hexdigest()


def test_sequential_lifecycle_matches_golden_digest(sample_databases):
    assert (
        _lifecycle_digest(sample_databases)
        == GOLDEN_SEQUENTIAL_LIFECYCLE_DIGEST
    )
