"""Golden digest of the second leg: hedged backups and mid-query re-routes.

Both mechanisms send a fragment's second leg to the next HRW-ranked
identical-plan replica; they differ only in their trigger (a timer or a
calibration-epoch bump) and in what happens to the primary (raced or
cancelled).  This digest hashes one small traced run of each — a
hedged stream through a congestion spike on S1, and a rerouted stream
through a load storm on S1 with forced epoch bumps, each with a replica
outage so declined second legs show too — covering every
observable a refactor of the second-leg plumbing could move: per-query
status, rows and response decomposition (``float.hex``), the
calibrator's runtime log, the policy's ``stats()`` and each dispatch
span's hedge/reroute attributes together with its ``hedge_backup`` /
``reroute`` child spans.  Metrics are deliberately left out: a counter
fix must not move the digest.
"""

import hashlib

import pytest

import repro.obs as obs
from repro.fed import ConcurrentRuntime
from repro.harness import build_replica_federation
from repro.sim import OutageSchedule, StepSchedule
from repro.workload import TEST_SCALE, build_workload

#: sha256 of the hedged and rerouted runs below.
GOLDEN_SECOND_LEG_DIGEST = (
    "93e9c7b52c35a578835f3e80b8aed56a228067098969e646af0d5c0bd002c176"
)

SEED = 13
QUERIES = 40
SPACING_MS = 40.0

#: Hedged run: a congestion spike on S1's link stalls fragments
#: dispatched into it, so backups fire and some win; R1 is down for part
#: of the spike, so some hedges decline.
HEDGE_AFTER_MS = 30.0
SPIKE = ((200.0, 0.95), (600.0, 0.0))
BACKUP_OUTAGE = (380.0, 460.0)

#: Rerouted run: a storm on S1 and a recalibration cadence through it;
#: R1 is down mid-storm, so interrupts decline (no replica) and stay
#: armed for a later bump.
REROUTE_BATCH_ROWS = 8
STORM = (200.0, 1400.0)
REPLICA_OUTAGE = (400.0, 900.0)
BUMPS = tuple(250.0 + 50.0 * i for i in range(24))

#: Dispatch-span attributes the second leg writes.
SECOND_LEG_TAGS = (
    "hedged",
    "hedge_fired",
    "hedge_winner",
    "backup_wins",
    "hedge_wasted_ms",
    "rerouted",
    "reroute_to",
    "reroute_cut_row",
    "reroute_wasted_ms",
)


@pytest.fixture(scope="module")
def replica_databases():
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=SEED, with_qcc=False
    )
    return {
        name: server.database
        for name, server in deployment.servers.items()
    }


def _fmt(value) -> str:
    return float.hex(value) if isinstance(value, float) else repr(value)


def _digest_run(digest, deployment, runtime, policy) -> None:
    instances = build_workload(instances_per_type=10)
    handles = [
        runtime.submit_at(
            index * SPACING_MS,
            instances[index % len(instances)].sql,
            klass="gold",
        )
        for index in range(QUERIES)
    ]
    runtime.run()
    for handle in handles:
        digest.update(f"{handle.index} {handle.status}\n".encode())
        result = handle.result
        if result is not None:
            digest.update(f"{list(map(repr, result.rows))}\n".encode())
            times = " ".join(
                float.hex(value)
                for value in (
                    result.response_ms, result.remote_ms, result.merge_ms
                )
            )
            digest.update(
                f"{times} retries={result.retries} "
                f"reroutes={result.reroutes}\n".encode()
            )
        for dispatch in handle.trace.find("dispatch"):
            tags = " ".join(
                f"{key}={_fmt(dispatch.attributes[key])}"
                for key in SECOND_LEG_TAGS
                if key in dispatch.attributes
            )
            digest.update(
                f"dispatch {_fmt(dispatch.start_ms)} {_fmt(dispatch.end_ms)}"
                f" {tags}\n".encode()
            )
            for child in dispatch.children:
                if child.name not in ("hedge_backup", "reroute"):
                    continue
                attributes = " ".join(
                    f"{key}={_fmt(value)}"
                    for key, value in sorted(child.attributes.items())
                )
                digest.update(
                    f"  {child.name} {_fmt(child.start_ms)}"
                    f" {_fmt(child.end_ms)} {attributes}\n".encode()
                )
    for entry in deployment.meta_wrapper.runtime_log:
        digest.update(
            f"{entry.server} {entry.fragment_signature} "
            f"{float.hex(entry.t_ms)} {float.hex(entry.observed_ms)}\n".encode()
        )
    digest.update(f"{sorted(policy.stats().items())}\n".encode())


def _hedged(databases, digest):
    deployment = build_replica_federation(
        scale=TEST_SCALE,
        seed=SEED,
        prebuilt_databases=databases,
        availability={"R1": OutageSchedule([BACKUP_OUTAGE])},
    )
    deployment.servers["S1"].link.congestion = StepSchedule(list(SPIKE))
    runtime = ConcurrentRuntime(
        deployment.integrator, hedge_after_ms=HEDGE_AFTER_MS
    )
    _digest_run(digest, deployment, runtime, runtime.hedging)
    return runtime.hedging


def _rerouted(databases, digest):
    deployment = build_replica_federation(
        scale=TEST_SCALE,
        seed=SEED,
        prebuilt_databases=databases,
        transfer="columnar",
        transfer_batch_rows=REROUTE_BATCH_ROWS,
        availability={"R1": OutageSchedule([REPLICA_OUTAGE])},
    )
    start, stop = STORM
    deployment.servers["S1"].load = StepSchedule([(start, 0.9), (stop, 0.0)])
    deployment.servers["S1"].link.congestion = StepSchedule(
        [(start, 0.95), (stop, 0.0)]
    )
    runtime = ConcurrentRuntime(
        deployment.integrator, reroute_batch_rows=REROUTE_BATCH_ROWS
    )
    epoch = deployment.integrator.calibration_epoch
    for t_ms in BUMPS:
        runtime.scheduler.call_at(t_ms, epoch.bump)
    _digest_run(digest, deployment, runtime, runtime.rerouting)
    return runtime.rerouting


def test_second_leg_matches_golden_digest(replica_databases):
    digest = hashlib.sha256()
    obs.configure(metrics=True, tracing=True, log_level=None)
    try:
        hedging = _hedged(replica_databases, digest)
        rerouting = _rerouted(replica_databases, digest)
    finally:
        obs.disable()
    # The digest must cover each mechanism's fired paths, not pass
    # vacuously over runs where no second leg ever left.
    assert hedging.backup_wins > 0 and hedging.primary_wins > 0
    assert rerouting.fired > 0 and rerouting.declined
    assert digest.hexdigest() == GOLDEN_SECOND_LEG_DIGEST
