"""Self-tests of the repo benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

import drive
import layertrace
import run
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


# -- self-time arithmetic --------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_toy_tree():
    clock = FakeClock()
    recorder = layertrace.Recorder(clock)
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 9].
    a = recorder.begin("a")
    clock.now = 1.0
    b = recorder.begin("b")
    clock.now = 2.0
    c1 = recorder.begin("c")
    clock.now = 3.0
    recorder.end(c1)
    clock.now = 4.0
    recorder.end(b)
    clock.now = 5.0
    c2 = recorder.begin("c")
    clock.now = 9.0
    recorder.end(c2)
    clock.now = 10.0
    recorder.end(a)
    # A second root after a gap the recorder does not cover.
    clock.now = 12.0
    d = recorder.begin("d")
    clock.now = 12.5
    recorder.end(d)

    assert recorder.self_times() == {"a": 3.0, "b": 2.0, "c": 5.0, "d": 0.5}
    assert recorder.calls() == {"a": 1, "b": 1, "c": 2, "d": 1}
    assert recorder.covered_s() == sum(recorder.self_times().values()) == 10.5


def test_wrapped_calls_nest_and_restore():
    from repro.fed import decomposer
    from repro.sqlengine import database, parser

    original = parser.parse
    tracer = layertrace.install()
    try:
        assert database.parse is not original
        assert decomposer.parse is database.parse
        recorder = layertrace.Recorder()
        tracer.activate(recorder)
        database.parse("SELECT o.priority FROM orders o")
        tracer.activate(None)
        database.parse("SELECT o.priority FROM orders o")
        assert recorder.calls() == {"sqlengine.parser": 1}
    finally:
        tracer.restore()
    assert parser.parse is original
    assert database.parse is original and decomposer.parse is original
    for hook in layertrace.HOOKS:
        owner = layertrace._resolve(hook.owner)
        assert not hasattr(vars(owner)[hook.attr], "__perfbench_original__")


def test_percentile_is_nearest_rank_and_refuses_thin_tails():
    values = list(range(1, 201))
    assert run.percentile(values, 0.5) == 100
    assert run.percentile(values, 0.95) == 190
    assert run.percentile(values[:100], 0.95) is None


def test_result_line_carries_the_gated_end_to_end_metrics():
    gated = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert gated == {name: run.END_TO_END[name] for name in run.GATED}


# -- generators -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    first = workloads.generate(workload, 11)
    assert first.to_bytes() == workloads.generate(workload, 11).to_bytes()
    assert first.to_bytes() != workloads.generate(workload, 12).to_bytes()
    assert len(first.queries) == workloads.QUERIES[workload]


def test_distinct_text_counts():
    fresh = workloads.generate("fresh-seq", 3)
    assert fresh.distinct_texts() == len(fresh.queries)
    texts = [q.sql for q in fresh.warmup + fresh.queries]
    assert len(set(texts)) == len(texts)
    repeat = workloads.generate("repeat-seq", 3)
    assert repeat.distinct_texts() <= 40
    assert run.check_stream(fresh) == run.check_stream(repeat) == []


def test_type_mix_is_balanced_and_storm_schedule_is_open_loop():
    storm = workloads.generate("storm-mix", 5)
    labels = [q.label for q in storm.queries]
    blocks = len(labels) // len(workloads.TYPE_BLOCK)
    for name in ("QT1", "QT2", "QT3", "QT4"):
        assert labels.count(name) == workloads.TYPE_BLOCK.count(name) * blocks
    times = [q.t_ms for q in storm.queries]
    assert times == sorted(times) and times[0] > 0
    assert {q.klass for q in storm.queries} == {"gold", "silver", "batch"}
    assert len(storm.writes) == len(storm.queries) // workloads.STORM_WRITE_EVERY


# -- answer oracle ------------------------------------------------------------------


def test_oracle_flags_one_injected_wrong_row():
    stream = workloads.generate("repeat-seq", 2, queries=6)
    stream = workloads.Stream(stream.workload, stream.seed, (), stream.queries)
    twin = drive.run_pass(drive.build("repeat-seq", engine="row"), stream)

    deployment = drive.build("repeat-seq")
    submit = deployment.integrator.submit
    calls = []

    def mutated(sql, **kwargs):
        result = submit(sql, **kwargs)
        calls.append(sql)
        if len(calls) == 4:
            first = list(result.rows[0])
            first[-1] = first[-1] + 1
            result.rows = [tuple(first)] + list(result.rows[1:])
        return result

    deployment.integrator.submit = mutated
    actual = drive.run_pass(deployment, stream)
    assert drive.compare(twin.outcomes, actual.outcomes) == [3]
    judged = {"warmup": actual.warmup, "outcomes": actual.outcomes}
    run.judge(twin, judged)
    assert judged["bad"] == [3] and judged["bad_warmup"] == []


# -- traced output -------------------------------------------------------------------


def test_traced_run_reports_every_per_layer_metric():
    stream = workloads.generate("storm-mix", 1, queries=24)
    traced = run.run_one_pass(stream, traced=True)
    metrics = run.per_layer([{"wall_s": traced["wall_s"]}], [traced])
    names = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert names <= set(metrics)
    for entry in BENCHMARK["per_layer"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    for layer in ("sim.sched", "fed.admission", "sqlengine.dml", "fed.hedging"):
        assert metrics[f"{layer}.calls"]["value"] > 0
    for hook in layertrace.HOOKS:
        owner = layertrace._resolve(hook.owner)
        assert not hasattr(vars(owner)[hook.attr], "__perfbench_original__")
