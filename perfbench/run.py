#!/usr/bin/env python3
"""Repo benchmark: wall-clock end-to-end and outside-in per-layer costs.

Usage, from the repository root::

    python3 perfbench/run.py --workload fresh-seq --seed 1 --seconds 12 --trace 0

One run generates the workload's stream from ``--seed``, then starts
one measuring process (one thread) that runs timed passes over the
stream back to back until ``--seconds`` have passed (at least
``MIN_PASSES``).  Each pass builds a fresh federation (timed as
set-up), warms up, and runs the stream through the public API; peak RSS
is read after the first pass.  Then the answer oracle replays the same
stream on a row-engine twin and every pass's answers are checked
against it.

Wall times are scaled to a reference host speed measured by a fixed
loop between every ten queries (see :func:`end_to_end`); the unscaled
figures are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import drive  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

#: Untraced passes per run, at least (timings are per-query medians).
MIN_PASSES = 3
#: Stop starting passes after this long, whatever ``--seconds`` says.
MAX_MEASURE_S = 90.0
#: Tail percentile: every pass answers >= 200 queries, so p95 has at
#: least MIN_BEYOND samples beyond it.
TAIL = 0.95
MIN_BEYOND = 10
MEASURE_TIMEOUT_S = 150
#: Host-speed reference: wall times are reported as on a host that runs
#: ``drive.reference_s`` in this many seconds (about this repository's
#: 2-vCPU development host on a quiet minute).
REF_NOMINAL_S = 0.0014

#: End-to-end metrics and their units; the result line carries GATED.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "q/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
    "virtual_p50_ms": "ms",
    "virtual_p95_ms": "ms",
    "completed_ratio": "ratio",
}
#: Printed but kept out of the result line: the virtual times are pure
#: functions of the seed (compare them per seed; on repeat-seq they land
#: on one of a few pool texts and repeat exactly across seeds), and
#: completed_ratio reads 1 on every workload, where a wrong or failed
#: answer already makes the run incorrect.
GATED = ("setup_s", "throughput_qps", "latency_p50_ms", "latency_p95_ms",
         "peak_rss_mib")


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except Exception as exc:  # broken program: no result
        raise ProgramMissing(f"cannot import repro: {exc!r}") from exc
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ProgramMissing(f"repro imported from {repro.__file__}")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile: the smallest sample with a share >= q of
    all samples at or below it.  None when fewer than ``MIN_BEYOND``
    samples lie beyond it (a tail that thin is not reported)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


# -- the measuring process -------------------------------------------------


def _state_sizes(deployment) -> Dict[str, float]:
    mw = deployment.meta_wrapper
    ii = deployment.integrator
    return {
        "state.compile_log_entries": len(mw.compile_log),
        "state.runtime_log_entries": len(mw.runtime_log),
        "state.sibling_entries": len(mw._siblings),
        "state.explain_entries": len(ii.explain_table),
        "state.patroller_entries": len(ii.patroller),
    }


def _layer_metrics(pass_rec, setup_rec, result, deployment, before) -> Dict:
    queries = len(result.outcomes)
    calls = pass_rec.calls()
    self_s = pass_rec.self_times()
    # Set-up is recorded apart from the pass: only its own layer counts.
    calls["harness.deployment"] = setup_rec.calls().get("harness.deployment", 0)
    self_s["harness.deployment"] = setup_rec.self_times().get(
        "harness.deployment", 0.0
    )
    counts = pass_rec.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("sqlengine.parser", "sqlengine.logical", "sqlengine.optimizer"):
        metrics[f"{layer}.per_query"] = ratio(calls.get(layer, 0), queries)
    metrics["sqlengine.optimizer.candidates_per_call"] = ratio(
        counts["sqlengine.optimizer.candidates"],
        calls.get("sqlengine.optimizer", 0),
    )
    metrics["fed.decomposer.fragments_per_query"] = ratio(
        counts["fed.decomposer.fragments"], calls.get("fed.decomposer", 0)
    )
    metrics["wrappers.meta.compile.explains_per_fragment"] = ratio(
        counts["wrappers.meta.compile.explains"],
        calls.get("wrappers.meta.compile", 0),
    )
    metrics["fed.global_optimizer.plans_per_call"] = ratio(
        counts["fed.global_optimizer.plans"],
        calls.get("fed.global_optimizer", 0),
    )
    cache = deployment.integrator.plan_cache.stats()
    metrics["fed.plan_cache.lookups"] = counts["fed.plan_cache.lookups"]
    metrics["fed.plan_cache.hits"] = counts["fed.plan_cache.hits"]
    metrics["fed.plan_cache.hit_ratio"] = ratio(
        counts["fed.plan_cache.hits"], counts["fed.plan_cache.lookups"]
    )
    metrics["fed.plan_cache.invalidations"] = (
        cache["invalidations"] - before["invalidations"]
    )
    metrics["core.routing.recalibrations"] = counts["core.routing.recalibrations"]
    metrics["core.routing.epoch_bumps"] = (
        deployment.qcc.epoch.value - before["epoch"]
    )
    metrics["wrappers.meta.execute.substitutions"] = counts[
        "wrappers.meta.execute.substitutions"
    ]
    metrics["sqlengine.executor.fragment.rows_out"] = counts[
        "sqlengine.executor.fragment.rows_out"
    ]
    statements = counts["sqlengine.dml.statements"]
    metrics["sqlengine.dml.statements"] = statements
    metrics["sqlengine.storage.calls_per_write"] = ratio(
        calls.get("sqlengine.storage", 0), statements
    )
    runtime = result.runtime
    metrics["sim.sched.queue_submits"] = counts["sim.sched.queue_submits"]
    metrics["sim.sched.max_queue_depth"] = (
        max(
            [q.max_depth for q in runtime.queues.values()]
            + [runtime.ii_queue.max_depth]
        )
        if runtime is not None
        else 0
    )
    metrics["fed.admission.shed_ratio"] = ratio(
        counts["fed.admission.sheds"], calls.get("fed.admission", 0)
    )
    hedging = (
        runtime.hedging.stats()
        if runtime is not None and runtime.hedging is not None
        else {"fired": 0.0, "backup_wins": 0.0, "wasted_ms": 0.0}
    )
    metrics["fed.hedging.fired"] = hedging["fired"]
    metrics["fed.hedging.backup_wins"] = hedging["backup_wins"]
    metrics["fed.hedging.useful_ratio"] = ratio(
        hedging["backup_wins"], hedging["fired"]
    )
    metrics["fed.hedging.wasted_ms"] = hedging["wasted_ms"]
    metrics.update(_state_sizes(deployment))
    covered = pass_rec.covered_s()
    metrics["trace.wall_s"] = result.wall_s
    metrics["trace.unattributed_s"] = result.wall_s - covered
    metrics["trace.compile_share"] = ratio(
        sum(self_s.get(layer, 0.0) for layer in layertrace.COMPILE_LAYERS),
        result.wall_s,
    )
    metrics["trace.spans"] = len(pass_rec.spans)
    return metrics


def run_one_pass(stream, traced: bool) -> Dict:
    """One pass: build the federation (timed as set-up), warm up, run."""
    gc.collect()
    report: Dict = {"traced": traced}
    if traced:
        tracer = layertrace.install()
        setup_rec, pass_rec = layertrace.Recorder(), layertrace.Recorder()
        tracer.activate(setup_rec)
    before_setup = drive.probe()
    began = perf_counter()
    deployment = drive.build(stream.workload)
    report["setup_s"] = perf_counter() - began
    report["setup_probes_s"] = [before_setup, drive.probe()]
    before: Dict[str, float] = {}

    def start_pass() -> None:
        before["invalidations"] = deployment.integrator.plan_cache.stats()[
            "invalidations"
        ]
        before["epoch"] = deployment.qcc.epoch.value
        if traced:
            tracer.activate(pass_rec)

    if traced:
        tracer.activate(None)
    result = drive.run_pass(deployment, stream, before_pass=start_pass)
    if traced:
        tracer.restore()
        report["layers"] = _layer_metrics(
            pass_rec, setup_rec, result, deployment, before
        )
        OUT_DIR.mkdir(exist_ok=True)
        pass_rec.dump(
            str(OUT_DIR / f"spans-{stream.workload}-{stream.seed}.json")
        )
    report.update(
        wall_s=result.wall_s,
        costs_s=result.costs_s,
        writes_s=result.writes_s,
        probes_s=result.probes_s,
        drain_s=result.drain_s,
        warmup=result.warmup,
        outcomes=result.outcomes,
    )
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Body of the measuring process: passes back to back.

    Runs until *seconds* have passed and there are enough passes; with
    *trace* every second pass is traced.  Peak RSS is read after the
    first pass, when the process has run exactly one timed pass.
    """
    stream = workloads.generate(workload, seed)
    passes: List[Dict] = []
    rss_mib = 0.0
    began = perf_counter()
    while True:
        passes.append(run_one_pass(stream, trace and len(passes) % 2 == 1))
        if len(passes) == 1:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced = sum(1 for p in passes if not p["traced"])
        enough = len(passes) >= 2 if trace else untraced >= MIN_PASSES
        elapsed = perf_counter() - began
        if (elapsed >= seconds and enough) or elapsed >= MAX_MEASURE_S:
            break
    return {"stream": stream.digest(), "rss_mib": rss_mib, "passes": passes}


def spawn_measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(Path(__file__).resolve()), "--measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(
        command, cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=MEASURE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"measuring process failed ({done.returncode}):\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the run (parent process) ---------------------------------------------------


def check_stream(stream) -> List[str]:
    """Generator invariants the workload definitions promise."""
    problems = []
    if stream.workload == "fresh-seq":
        texts = [q.sql for q in stream.warmup + stream.queries]
        if len(set(texts)) != len(texts):
            problems.append("fresh-seq repeats a text")
    elif stream.workload == "repeat-seq" and stream.distinct_texts() > 40:
        problems.append("repeat-seq has more than 40 texts")
    return problems


def judge(twin, result: Dict) -> None:
    """Mark *result*'s queries that raised or disagree with the twin."""
    for key, expected in (("warmup", twin.warmup), ("outcomes", twin.outcomes)):
        actual = result[key]
        bad = set(drive.compare(expected, actual))
        bad |= {i for i, o in enumerate(actual) if o[0].startswith("error")}
        result["bad_warmup" if key == "warmup" else "bad"] = sorted(bad)


def answered(result: Dict) -> int:
    """Queries of one pass that completed with the oracle's answer."""
    return sum(
        1
        for i, o in enumerate(result["outcomes"])
        if o[0] == "completed" and i not in result["bad"]
    )


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else 1e3 * seconds


def speed_scales(result: Dict) -> List[float]:
    """Per query: REF_NOMINAL_S over the mean of the two host-speed
    probes taken before and after its group of ``drive.PROBE_EVERY``
    queries."""
    probes, every = result["probes_s"], drive.PROBE_EVERY
    return [
        2 * REF_NOMINAL_S / (probes[i // every] + probes[i // every + 1])
        for i in range(len(result["costs_s"]))
    ]


def end_to_end(
    passes: Sequence[Dict], rss_mib: float, normalize: bool = True
) -> Dict[str, Dict]:
    """End-to-end metrics over the untraced passes.

    Every pass runs the identical stream from an identical fresh
    federation, so each query's time is taken as its median over the
    passes, which keeps every query, and every cost the program itself
    repeats (cache misses, collections), in the figure.

    The host's speed drifts by half again within minutes.  With
    *normalize*, each wall time is scaled by REF_NOMINAL_S over the
    host-speed probes taken around it (the fixed reference loop in
    ``drive.reference_s``), so times read as on a host that runs the
    reference in REF_NOMINAL_S.  No program change can move the probes.
    """
    count = len(passes[0]["costs_s"])
    scales = [
        speed_scales(p) if normalize else [1.0] * count for p in passes
    ]

    def across(value) -> List[float]:
        return [
            statistics.median(value(p, k, i) for k, p in enumerate(passes))
            for i in range(count)
        ]

    costs = across(lambda p, k, i: p["costs_s"][i] * scales[k][i])
    latencies = across(
        lambda p, k, i: (p["costs_s"][i] - p["writes_s"][i]) * scales[k][i]
    )
    drain = statistics.median(
        p["drain_s"] * (REF_NOMINAL_S / p["probes_s"][-1] if normalize else 1)
        for p in passes
    )
    setup = statistics.median(
        p["setup_s"]
        * (2 * REF_NOMINAL_S / sum(p["setup_probes_s"]) if normalize else 1)
        for p in passes
    )
    virtual = [o[2] for o in passes[0]["outcomes"] if o[0] == "completed"]
    attempted = sum(len(p["outcomes"]) for p in passes)
    values = {
        "setup_s": (setup, len(passes)),
        "throughput_qps": (
            min(answered(p) for p in passes) / (sum(costs) + drain), count
        ),
        "latency_p50_ms": (_ms(percentile(latencies, 0.5)), count),
        "latency_p95_ms": (_ms(percentile(latencies, TAIL)), count),
        "peak_rss_mib": (rss_mib, 1),
        "virtual_p50_ms": (percentile(virtual, 0.5), len(virtual)),
        "virtual_p95_ms": (percentile(virtual, TAIL), len(virtual)),
        "completed_ratio": (
            sum(answered(p) for p in passes) / attempted, attempted
        ),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def per_layer(untraced: Sequence[Dict], traced: Sequence[Dict]) -> Dict[str, Dict]:
    """Per-layer metrics: medians over the traced passes, plus the
    traced-over-untraced wall ratio."""
    names = list(traced[0]["layers"])
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in names
    }
    values["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in untraced)
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in values.items()
    }


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("per_query"):
        return "1/q"
    if "_per_" in suffix or suffix.endswith(("ratio", "share")):
        return "ratio"
    if suffix.endswith("_entries"):
        return "entries"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    stream = workloads.generate(workload, seed)
    problems = check_stream(stream)
    digest = stream.digest()
    measured = spawn_measure(workload, seed, seconds, trace)
    if measured["stream"] != digest:
        problems.append("the measuring process generated a different stream")
    passes = measured["passes"]

    twin = drive.run_pass(drive.build(workload, engine="row"), stream)
    for result in passes:
        judge(twin, result)
    failed = sum(len(p["bad_warmup"]) + len(p["bad"]) for p in passes)
    attempted = sum(len(p["warmup"]) + len(p["outcomes"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    e2e = end_to_end(untraced, measured["rss_mib"])
    raw = end_to_end(untraced, measured["rss_mib"], normalize=False)
    sheds = sum(1 for p in passes for o in p["outcomes"] if o[0] == "shed")
    queries = sum(len(p["outcomes"]) for p in passes)

    print(
        f"perfbench {workload} seed={seed} passes={len(untraced)} untraced"
        f" + {len(traced_passes)} traced, {len(stream.queries)} queries"
        f" (+{len(stream.warmup)} warm-up) per pass,"
        f" stream sha256 {digest[:16]}"
    )
    for name, entry in e2e.items():
        value, unscaled = entry["value"], raw[name]["value"]
        shown = "n/a" if value is None else f"{value:.4f}"
        note = (
            f"  (unscaled {unscaled:.4f})"
            if value is not None and unscaled != value else ""
        )
        print(
            f"  {name:<18} {shown:>12} {entry['unit']:<6}"
            f" n={entry['samples']}{note}"
        )
    print(f"  {'error_ratio':<18} {failed / attempted:>12.4f} ratio  "
          f"{failed}/{attempted} (wrong or raised, oracle: row-engine twin)")
    print(f"  {'shed_ratio':<18} {sheds / queries:>12.4f} ratio  "
          f"{sheds}/{queries}")
    if workload == "storm-mix":
        share = statistics.median(
            sum(p["writes_s"]) / p["wall_s"] for p in untraced
        )
        print(f"  {'write_share':<18} {share:>12.4f} ratio  "
              f"({len(stream.writes)} UPDATEs x 3 replicas per pass)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    if trace:
        metrics = per_layer(untraced, traced_passes)
        for name, entry in metrics.items():
            print(f"  {name:<48} {entry['value']:>14.6f} {entry['unit']}")
    else:
        missing = [name for name in GATED if e2e[name]["value"] is None]
        if missing:
            raise ValueError(f"too few samples for {missing}")
        metrics = {
            name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
            for name in GATED
        }
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.measure:
        print(json.dumps(
            measure(args.workload, args.seed, args.seconds, bool(args.trace))
        ))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
