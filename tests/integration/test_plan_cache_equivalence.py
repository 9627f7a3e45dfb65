"""The plan cache and the compile memos must be behavior-invisible.

Runs the same Figure-9-style load-shifting sweep on two deployments —
plan cache on and off — submitting every query in lockstep, and asserts
both choose byte-identical plans with identical (virtual-time) response
times throughout.  Because compile overhead is charged as a constant in
virtual time, caching changes only wall-clock cost, never behavior.

A fresh-literal stream, which the plan cache never serves, is hashed
against a digest recorded before the exact compile memos existed, so
the memos below the cache are pinned the same way.
"""

import hashlib

import pytest

from repro.harness import build_federation
from repro.workload import PHASES, QUERY_TYPES, TEST_SCALE, build_workload


@pytest.fixture()
def paired_deployments(sample_databases):
    cached = build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )
    uncached = build_federation(
        scale=TEST_SCALE,
        prebuilt_databases=sample_databases,
        enable_plan_cache=False,
    )
    return cached, uncached


def test_cached_and_uncached_runs_choose_identical_plans(
    paired_deployments,
):
    cached, uncached = paired_deployments
    workload = build_workload(instances_per_type=2, seed=7)
    # Idle, S3-loaded, all-loaded: the shifts that move QT2/QT3 routing.
    phases = (PHASES[0], PHASES[1], PHASES[7])

    for phase in phases:
        for deployment in (cached, uncached):
            deployment.set_load(phase.levels())
            deployment.clock.advance(3_000.0)
            deployment.qcc.probe_servers(deployment.clock.now)
        for repeat in range(2):  # second pass exercises cache hits
            for instance in workload:
                r_cached = cached.integrator.submit(
                    instance.sql, label=instance.label
                )
                r_uncached = uncached.integrator.submit(
                    instance.sql, label=instance.label
                )
                assert (
                    r_cached.plan.describe() == r_uncached.plan.describe()
                ), (phase.name, repeat, instance.label)
                assert r_cached.response_ms == pytest.approx(
                    r_uncached.response_ms
                )
                assert r_cached.row_count == r_uncached.row_count
        for deployment in (cached, uncached):
            deployment.qcc.recalibrate(deployment.clock.now)

    stats = cached.integrator.plan_cache.stats()
    assert stats["hits"] > 0, stats
    assert uncached.integrator.plan_cache is None
    # The two runs stayed in lockstep to the end.
    assert cached.clock.now == pytest.approx(uncached.clock.now)


#: sha256 of every compile-log entry, chosen server and response time
#: of the fresh-literal stream below, recorded before the exact compile
#: memos (parse, per-estimator subtree cost, plan signature) existed.
#: The memos only skip repeated work, so the digest must never move.
GOLDEN_FRESH_COMPILE_DIGEST = (
    "fa5ef9eab57883587ed6b9ca3ee0d8c3cd9b23a46372d8938e05e36de3a3b2ec"
)

#: Instance ids above the paper's pool of 10 per type: every text is new.
FRESH_IDS = tuple(range(1_000, 1_010))


def _fresh_compile_digest(deployment) -> str:
    instances = [
        template.instance(instance_id)
        for instance_id in FRESH_IDS
        for template in QUERY_TYPES
    ]
    digest = hashlib.sha256()
    half = len(instances) // 2
    # Idle, then S3-loaded: the shift that moves QT2/QT3 routing.
    for phase, batch in ((PHASES[0], instances[:half]),
                         (PHASES[1], instances[half:])):
        deployment.set_load(phase.levels())
        deployment.clock.advance(3_000.0)
        deployment.qcc.probe_servers(deployment.clock.now)
        for instance in batch:
            result = deployment.integrator.submit(
                instance.sql, label=instance.label
            )
            for choice in result.plan.choices:
                digest.update(
                    f"{choice.fragment.fragment_id}@{choice.server}\n".encode()
                )
            digest.update(f"{float.hex(result.response_ms)}\n".encode())
        deployment.qcc.recalibrate(deployment.clock.now)
    for entry in deployment.meta_wrapper.compile_log:
        costs = " ".join(
            float.hex(getattr(cost, part))
            for cost in (entry.estimated, entry.calibrated)
            for part in ("first_tuple", "total", "rows", "width_bytes")
        )
        digest.update(
            f"{entry.server} {entry.plan_signature} {costs}\n".encode()
        )
    return digest.hexdigest()


def test_fresh_literal_stream_matches_golden_compile_digest(
    sample_databases,
):
    deployment = build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )
    digest = _fresh_compile_digest(deployment)
    # Every text is fresh, so the plan cache never answered a compile.
    assert deployment.integrator.plan_cache.stats()["hits"] == 0
    assert digest == GOLDEN_FRESH_COMPILE_DIGEST
