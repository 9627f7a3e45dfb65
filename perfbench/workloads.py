"""Seeded workload streams for the repo benchmark.

Each workload is a pure function of ``(name, seed)``: the same seed
gives a byte-identical stream (see :meth:`Stream.to_bytes`).  The
program under test only ever receives what is generated here -- SQL
texts, virtual arrival times, priority classes and write statements.

* ``fresh-seq``  -- closed loop, one client; every text carries a fresh
  literal, so the 128-entry plan cache never hits and compile runs on
  every query.
* ``repeat-seq`` -- closed loop, one client; texts come from the paper's
  pool of 10 instances per type (40 texts), which fit in the cache.
* ``storm-mix``  -- open loop on the virtual clock: Poisson arrivals
  over weighted priority classes, half fresh and half pool texts, with
  UPDATE statements sent to every replica every few arrivals.

Query types are drawn in shuffled blocks (``TYPE_BLOCK``), and
storm-mix's classes and fresh/pool split in shuffled blocks too, so
every stream has the same mix and seeds differ in order, literals and
arrival times.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("fresh-seq", "repeat-seq", "storm-mix")

#: Data seed of every deployment; the workload seed only picks the stream.
DATA_SEED = 7
#: The paper's workload: 10 instances per query type.
POOL_INSTANCES = 10
#: Fresh instance ids are drawn above the pool's 0..9.
FRESH_ID_BASE = 1_000
FRESH_ID_SPAN = 10_000_000

#: Timed queries per pass.  Every pass has at least 200 timed
#: queries, so p95 has at least ten samples beyond it.
QUERIES = {"fresh-seq": 240, "repeat-seq": 400, "storm-mix": 200}
#: Query types per shuffled block.  QT1 comes twice so that the median
#: and p95 fall inside one type's latency cluster (QT3 < QT1 < QT2 <
#: QT4) rather than on the border between two, where they jump.
TYPE_BLOCK = ("QT1", "QT1", "QT2", "QT3", "QT4")
#: Untimed warm-up queries before each pass (lazy set-up, QCC's first
#: probe, and for the pool workloads a filled plan cache).
FRESH_WARMUP = 8

#: storm-mix arrival rate (virtual queries per second).
STORM_RATE_QPS = 1.0
#: storm-mix sends one UPDATE to every replica before every Nth arrival.
STORM_WRITE_EVERY = 20
#: Static hedge delay for storm-mix (virtual ms).
STORM_HEDGE_AFTER_MS = 60.0
#: Rows touched by one storm UPDATE (a 10% key range of lineitem).
STORM_WRITE_SPAN = 600
STORM_WRITE_COLUMNS = ("quantity", "extprice")


@dataclass(frozen=True)
class Query:
    sql: str
    label: str
    #: virtual arrival time (open loop only)
    t_ms: Optional[float] = None
    #: priority class (open loop only)
    klass: Optional[str] = None


@dataclass(frozen=True)
class Write:
    """One UPDATE sent to every replica just before query ``before``."""

    before: int
    sql: str


@dataclass(frozen=True)
class Stream:
    workload: str
    seed: int
    warmup: Tuple[Query, ...]
    queries: Tuple[Query, ...]
    writes: Tuple[Write, ...] = ()

    def to_bytes(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def distinct_texts(self) -> int:
        return len({query.sql for query in self.queries})


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``, so streams do
    # not depend on PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}/{part}")


def _blocks(rng: random.Random, count: int, block: Sequence) -> List:
    """*count* items drawn as repeated shuffles of *block*, so every
    stream holds the block's mix exactly (seeds differ only in order)."""
    order: List = []
    while len(order) < count:
        shuffled = list(block)
        rng.shuffle(shuffled)
        order.extend(shuffled)
    return order[:count]


class _FreshTexts:
    """Instances with never-before-seen SQL text (distinct literals)."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set = set()

    def next(self, template) -> Query:
        while True:
            instance_id = FRESH_ID_BASE + self._rng.randrange(FRESH_ID_SPAN)
            instance = template.instance(instance_id, DATA_SEED)
            if instance.sql not in self._seen:
                self._seen.add(instance.sql)
                return Query(sql=instance.sql, label=instance.label)


def _pool_query(rng: random.Random, template) -> Query:
    instance = template.instance(rng.randrange(POOL_INSTANCES), DATA_SEED)
    return Query(sql=instance.sql, label=instance.label)


def _pool_warmup(rng: random.Random, templates: Sequence) -> Tuple[Query, ...]:
    pool = [
        Query(sql=instance.sql, label=instance.label)
        for template in templates
        for instance in template.instances(POOL_INSTANCES, DATA_SEED)
    ]
    rng.shuffle(pool)
    return tuple(pool)


def _class_block(classes: Sequence) -> List[str]:
    """Ten class slots in proportion to the classes' traffic weights."""
    total = sum(c.weight for c in classes)
    return [
        c.name for c in classes for _ in range(round(10 * c.weight / total))
    ]


def _storm_write(rng: random.Random, large_rows: int) -> str:
    column = rng.choice(STORM_WRITE_COLUMNS)
    start = rng.randint(1, max(1, large_rows - STORM_WRITE_SPAN))
    return (
        f"UPDATE lineitem SET {column} = {column} + 1 "
        f"WHERE linekey >= {start} AND linekey < {start + STORM_WRITE_SPAN}"
    )


def generate(workload: str, seed: int, queries: Optional[int] = None) -> Stream:
    """The stream of *workload* for *seed* (*queries* overrides size)."""
    from repro.fed.admission import DEFAULT_CLASSES
    from repro.workload import BENCH_SCALE, QUERY_TYPES, template_by_name

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")
    count = QUERIES[workload] if queries is None else queries
    types = [template_by_name(name) for name in TYPE_BLOCK]
    order = _blocks(_rng(workload, seed, "types"), count, types)
    texts = _rng(workload, seed, "texts")
    fresh = _FreshTexts(_rng(workload, seed, "fresh"))

    if workload == "fresh-seq":
        warmup = tuple(
            fresh.next(t)
            for t in _blocks(_rng(workload, seed, "warmup"), FRESH_WARMUP, types)
        )
        return Stream(
            workload, seed, warmup, tuple(fresh.next(t) for t in order)
        )

    warmup = _pool_warmup(_rng(workload, seed, "warmup"), QUERY_TYPES)
    if workload == "repeat-seq":
        return Stream(
            workload, seed, warmup, tuple(_pool_query(texts, t) for t in order)
        )

    arrivals = _rng(workload, seed, "arrivals")
    classes = _blocks(
        _rng(workload, seed, "classes"), count, _class_block(DEFAULT_CLASSES)
    )
    is_fresh = _blocks(_rng(workload, seed, "mix"), count, (True, False))
    writes_rng = _rng(workload, seed, "writes")
    stream: List[Query] = []
    writes: List[Write] = []
    t_ms = 0.0
    for index, template in enumerate(order):
        t_ms += arrivals.expovariate(STORM_RATE_QPS) * 1_000.0
        base = (
            fresh.next(template) if is_fresh[index]
            else _pool_query(texts, template)
        )
        stream.append(
            Query(
                sql=base.sql,
                label=base.label,
                t_ms=t_ms,
                klass=classes[index],
            )
        )
        if index % STORM_WRITE_EVERY == STORM_WRITE_EVERY - 1:
            writes.append(
                Write(index, _storm_write(writes_rng, BENCH_SCALE.large_rows))
            )
    return Stream(workload, seed, warmup, tuple(stream), tuple(writes))
