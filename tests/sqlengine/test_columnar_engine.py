"""Unit tests for the columnar engine's storage, kernels and operators.

Covers the typed column representations (validity bitmaps, dictionary
encoding), the selection-vector contract (filters narrow, never copy),
the expression kernels against the row evaluator (SQL NULL semantics,
three-valued AND/OR with short-circuit selections, error messages),
operator semantics against the row oracle (outer-join NULL padding,
NULL join keys, aggregate edge cases), the engine machinery (the
row-stream adapter, ``MaterializedInput`` batching, engine names), the
pinned LIMIT meter exception, the operator fast paths (unique-build
hash join, COUNT(*)-only grouping, single-column DISTINCT), and the
observability surface (per-operator selectivity in EXPLAIN ANALYZE,
engine metrics).
"""

from __future__ import annotations

from array import array

import pytest

import repro.obs as obs
import repro.sqlengine as sqlengine
from repro.obs.profile import profiling, render_analyzed_plan
from repro.sqlengine import (
    DEFAULT_BATCH_SIZE,
    And,
    Arithmetic,
    Column,
    ColumnBatch,
    ColumnRef,
    ColumnType,
    Comparison,
    Database,
    DictColumn,
    FloatColumn,
    InList,
    IntColumn,
    IsNull,
    Like,
    Literal,
    NestedLoopJoin,
    Not,
    Or,
    Schema,
    SqlError,
    TypeMismatchError,
    ValueColumn,
    execute_plan,
    parse_expression,
    resolve_engine,
)
from repro.sqlengine.columnar import NULL_CODE
from repro.sqlengine.physical import ExecutionContext, MaterializedInput

ENGINES = ("row", "columnar")


def meter_tuple(result):
    meter = result.meter
    return (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def run_engines(database, sql, batch_size=4):
    plan = database.explain(sql)[0].plan
    return plan, {
        engine: execute_plan(
            plan,
            database.storage,
            database.params,
            engine=engine,
            batch_size=batch_size,
        )
        for engine in ENGINES
    }


def assert_all_equivalent(database, sql, batch_size=4):
    _plan, results = run_engines(database, sql, batch_size)
    reference = results["row"]
    for engine in ENGINES:
        assert results[engine].rows == reference.rows, (sql, engine)
        assert meter_tuple(results[engine]) == meter_tuple(reference), (
            sql,
            engine,
        )
    return results


# -- typed columns ----------------------------------------------------------


class TestColumnData:
    def test_int_column_dense(self):
        col = IntColumn(array("q", [3, 1, 4]))
        assert col.values() == [3, 1, 4]
        assert not col.has_nulls()

    def test_int_column_validity(self):
        col = IntColumn(array("q", [3, 0, 4]), bytearray([1, 0, 1]))
        assert col.values() == [3, None, 4]
        assert col.has_nulls()

    def test_float_column_validity(self):
        col = FloatColumn(array("d", [1.5, 0.0]), bytearray([1, 0]))
        assert col.values() == [1.5, None]

    def test_dict_column_decode_and_view(self):
        dictionary = ["lo", "hi"]
        encode = {"lo": 0, "hi": 1}
        col = DictColumn(
            array("q", [1, NULL_CODE, 0, 1]), dictionary, encode, True
        )
        assert col.values() == ["hi", None, "lo", "hi"]
        codes, d, enc = col.dict_view()
        assert codes == [1, NULL_CODE, 0, 1]
        assert d is dictionary and enc is encode

    def test_value_column_lazy_nullability(self):
        assert ValueColumn([1, None]).has_nulls()
        assert not ValueColumn([1, 2]).has_nulls()
        assert not ValueColumn([1, None], nullable=False).has_nulls()

    def test_typed_storage_is_compact(self):
        from sys import getsizeof

        raw = list(range(1024))
        typed = IntColumn(array("q", raw))
        # A boxed row representation pays the list of pointers plus one
        # Python int object per value; the typed array pays 8 bytes per
        # value.
        boxed_bytes = getsizeof(raw) + sum(getsizeof(v) for v in raw)
        assert typed.storage_bytes() < boxed_bytes / 3

    def test_table_storage_dictionary_encodes_strings(self):
        database = Database("cols")
        database.create_table(
            "t",
            Schema(
                [Column("x", ColumnType.INT), Column("s", ColumnType.STR)]
            ),
        )
        database.load_rows("t", [(1, "a"), (2, None), (3, "a")])
        columns = database.storage.table("t").columnar()
        assert isinstance(columns.cols[0], IntColumn)
        assert isinstance(columns.cols[1], DictColumn)
        assert columns.cols[1].values() == ["a", None, "a"]


# -- selection vectors ------------------------------------------------------


class TestSelectionVectors:
    def batch(self):
        return ColumnBatch(
            (
                IntColumn(array("q", [10, 11, 12, 13])),
                ValueColumn(["a", "b", "c", "d"]),
            ),
            4,
            None,
        )

    def test_with_sel_shares_columns(self):
        batch = self.batch()
        narrowed = batch.with_sel([1, 3])
        assert narrowed.cols is batch.cols  # no copy, only the selection
        assert len(narrowed) == 2
        assert narrowed.n_rows == 4
        assert narrowed.materialize() == [(11, "b"), (13, "d")]

    def test_first_n_narrows_selection(self):
        batch = self.batch().with_sel([0, 2, 3])
        assert batch.first_n(2).materialize() == [(10, "a"), (12, "c")]

    def test_column_values_respect_selection(self):
        batch = self.batch().with_sel([2])
        assert batch.column_values(1) == ["c"]

    def test_empty_batch(self):
        empty = ColumnBatch((), 3, None)
        assert empty.materialize() == [(), (), ()]


# -- expression kernels against the row evaluator ---------------------------

KERNEL_SCHEMA = Schema(
    (
        Column("a", ColumnType.INT, "t"),
        Column("b", ColumnType.FLOAT, "t"),
        Column("s", ColumnType.STR, "t"),
    )
)

KERNEL_ROWS = [
    (4, 2.5, "Hi"),
    (None, 1.0, "Hello"),
    (7, None, None),
    (0, -1.5, "World"),
]


def as_batch(rows):
    return ColumnBatch(
        tuple(
            ValueColumn([row[j] for row in rows])
            for j in range(len(KERNEL_SCHEMA))
        ),
        len(rows),
        None,
    )


def kernel(expr, rows=KERNEL_ROWS):
    return expr.compile_columnar(KERNEL_SCHEMA)(as_batch(rows))


def selection(expr, rows=KERNEL_ROWS):
    return expr.compile_filter_columnar(KERNEL_SCHEMA)(as_batch(rows))


def agrees_with_row_engine(expr, rows=KERNEL_ROWS):
    evaluate = expr.compile(KERNEL_SCHEMA)
    expected = [evaluate(row) for row in rows]
    assert kernel(expr, rows) == expected
    assert selection(expr, rows) == [
        i for i, value in enumerate(expected) if value is True
    ]
    return expected


class TestScalarKernels:
    def test_literal_broadcast(self):
        assert kernel(Literal(42)) == [42, 42, 42, 42]
        assert kernel(Literal(None)) == [None] * 4

    def test_column_extraction(self):
        assert kernel(ColumnRef("a")) == [4, None, 7, 0]
        assert kernel(ColumnRef("t.s")) == ["Hi", "Hello", None, "World"]

    def test_empty_batch(self):
        expr = Comparison(">", ColumnRef("a"), Literal(1))
        assert kernel(expr, []) == []
        assert selection(expr, []) == []

    def test_comparison_null_propagation(self):
        expr = Comparison(">", ColumnRef("a"), Literal(1))
        assert agrees_with_row_engine(expr) == [True, None, True, False]

    def test_comparison_null_literal(self):
        expr = Comparison("=", ColumnRef("a"), Literal(None))
        assert agrees_with_row_engine(expr) == [None] * 4

    def test_comparison_column_vs_column(self):
        agrees_with_row_engine(Comparison("<", ColumnRef("b"), ColumnRef("a")))

    def test_comparison_type_mismatch_message_matches_row_engine(self):
        expr = Comparison(">", ColumnRef("a"), Literal("zzz"))
        with pytest.raises(TypeMismatchError) as value_err:
            kernel(expr)
        with pytest.raises(TypeMismatchError) as filter_err:
            selection(expr)
        with pytest.raises(TypeMismatchError) as row_err:
            expr.compile(KERNEL_SCHEMA)(KERNEL_ROWS[0])
        assert str(value_err.value) == str(row_err.value)
        assert str(filter_err.value) == str(row_err.value)

    def test_arithmetic_null_and_division_by_zero(self):
        expr = Arithmetic("/", Literal(10), ColumnRef("a"))
        assert agrees_with_row_engine(expr) == [2.5, None, 10 / 7, None]

    def test_arithmetic_literal_fast_path(self):
        expr = Arithmetic("*", ColumnRef("b"), Literal(2.0))
        assert agrees_with_row_engine(expr) == [5.0, 2.0, None, -3.0]

    def test_is_null(self):
        assert agrees_with_row_engine(IsNull(ColumnRef("a"))) == [
            False,
            True,
            False,
            False,
        ]
        assert agrees_with_row_engine(
            IsNull(ColumnRef("a"), negated=True)
        ) == [True, False, True, True]

    def test_like_and_in_list(self):
        agrees_with_row_engine(Like(ColumnRef("s"), "H%"))
        agrees_with_row_engine(InList(ColumnRef("a"), (0, 4)))


class TestThreeValuedLogicKernels:
    @pytest.mark.parametrize("left", [True, False, None])
    @pytest.mark.parametrize("right", [True, False, None])
    def test_and_or_truth_tables(self, left, right):
        for connective in (And, Or):
            agrees_with_row_engine(
                connective(Literal(left), Literal(right)), [(1, 1.0, "x")]
            )

    def test_not_kernel(self):
        expr = Not(Comparison(">", ColumnRef("a"), Literal(1)))
        assert agrees_with_row_engine(expr) == [False, None, False, True]

    def test_and_short_circuit_selection_vector(self):
        # The right side must only be evaluated on surviving rows: a
        # type error lurking behind a False left conjunct never fires.
        safe = Comparison("=", ColumnRef("s"), Literal("Hi"))
        explosive = Comparison(">", ColumnRef("a"), Literal("boom"))
        rows = [(4, 2.5, "nope")]
        assert kernel(And(safe, explosive), rows) == [False]
        assert selection(And(safe, explosive), rows) == []
        with pytest.raises(TypeMismatchError):
            kernel(And(explosive, safe), rows)
        with pytest.raises(TypeMismatchError):
            selection(And(explosive, safe), rows)

    def test_or_short_circuit_selection_vector(self):
        safe = Comparison("=", ColumnRef("s"), Literal("Hi"))
        explosive = Comparison(">", ColumnRef("a"), Literal("boom"))
        rows = [(4, 2.5, "Hi")]
        assert kernel(Or(safe, explosive), rows) == [True]
        assert selection(Or(safe, explosive), rows) == [0]


# -- operator semantics against the row oracle ------------------------------


@pytest.fixture()
def joined_db():
    database = Database("joined")
    database.create_table(
        "dept",
        Schema(
            (Column("deptno", ColumnType.INT), Column("name", ColumnType.STR))
        ),
    )
    database.load_rows(
        "dept", [(1, "eng"), (2, "ops"), (3, "sales"), (4, "empty")]
    )
    database.create_table(
        "emp",
        Schema(
            (
                Column("empno", ColumnType.INT),
                Column("deptno", ColumnType.INT),
                Column("salary", ColumnType.INT),
            )
        ),
    )
    database.load_rows(
        "emp",
        [(10, 1, 100), (11, 1, 200), (12, 2, 150), (13, None, 50)],
    )
    return database


def both_engines(database, sql):
    plan = database.explain(sql)[0].plan
    row = execute_plan(plan, database.storage, database.params, engine="row")
    col = execute_plan(
        plan, database.storage, database.params, engine="columnar"
    )
    return row, col


class TestOperators:
    def test_outer_join_null_padding(self, joined_db):
        row, col = both_engines(
            joined_db,
            "SELECT d.name, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno",
        )
        assert row.rows == col.rows
        assert ("empty", None) in col.rows
        assert ("sales", None) in col.rows
        assert row.meter.cpu_ms == col.meter.cpu_ms

    def test_outer_join_with_residual(self, joined_db):
        row, col = both_engines(
            joined_db,
            "SELECT d.name, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno AND e.salary > 120",
        )
        assert row.rows == col.rows
        assert ("eng", 11) in col.rows
        assert ("eng", 10) not in col.rows

    def test_null_join_keys_never_match(self, joined_db):
        row, col = both_engines(
            joined_db,
            "SELECT e.empno, d.name FROM emp e "
            "JOIN dept d ON e.deptno = d.deptno",
        )
        assert row.rows == col.rows
        assert all(empno != 13 for empno, _ in col.rows)

    def test_empty_input_global_aggregate(self, joined_db):
        row, col = both_engines(
            joined_db,
            "SELECT COUNT(*), SUM(e.salary), MIN(e.salary) FROM emp e "
            "WHERE e.salary > 99999",
        )
        assert row.rows == col.rows == [(0, None, None)]
        assert row.meter.cpu_ms == col.meter.cpu_ms

    def test_nested_loop_join_condition(self, joined_db):
        # Inner and outer nested-loop joins with a non-equi ON
        # condition, built directly (the optimizer turns an inner join's
        # condition into a Filter above a cross product).
        dept = joined_db.explain("SELECT d.deptno, d.name FROM dept d")[0]
        emp = joined_db.explain("SELECT e.empno, e.salary FROM emp e")[0]
        condition = parse_expression("d.deptno * 100 < e.salary")
        for outer in (False, True):
            plan = NestedLoopJoin(dept.plan, emp.plan, condition, outer=outer)
            results = [
                execute_plan(
                    plan,
                    joined_db.storage,
                    joined_db.params,
                    engine=engine,
                    batch_size=2,
                )
                for engine in ENGINES
            ]
            row, col = results
            assert row.rows == col.rows
            assert meter_tuple(row) == meter_tuple(col)
            assert ((4, "empty", None, None) in col.rows) is outer

    def test_distinct_aggregate(self, joined_db):
        row, col = both_engines(
            joined_db,
            "SELECT COUNT(DISTINCT e.deptno) FROM emp e",
        )
        assert row.rows == col.rows == [(2,)]


class TestEngineMachinery:
    def materialized(self, n):
        data = [(i,) for i in range(n)]
        plan = MaterializedInput(
            "m", Schema((Column("x", ColumnType.INT),)), data
        )
        return data, plan

    def context(self, database):
        return ExecutionContext(
            storage=database.storage,
            params=database.params,
            engine="columnar",
        )

    def test_default_adapter_chunks_row_stream(self, joined_db):
        # MaterializedInput has a native columnar path; go through the
        # base-class adapter explicitly to test the row-stream bridge.
        data, plan = self.materialized(DEFAULT_BATCH_SIZE + 5)
        ctx = self.context(joined_db)
        batches = list(super(MaterializedInput, plan)._rows_columnar(ctx))
        assert [len(b) for b in batches] == [DEFAULT_BATCH_SIZE, 5]
        assert [r for b in batches for r in b.materialize()] == data
        assert ctx.meter.cpu_ms == len(data) * joined_db.params.cpu_tuple_cost

    def test_materialized_input_slices_batches(self, joined_db):
        data, plan = self.materialized(DEFAULT_BATCH_SIZE + 5)
        ctx = self.context(joined_db)
        batches = list(plan.rows_columnar(ctx))
        assert [len(b) for b in batches] == [DEFAULT_BATCH_SIZE, 5]
        assert [r for b in batches for r in b.materialize()] == data
        # Same meter as the row stream over the same leaf.
        row_ctx = self.context(joined_db)
        assert list(plan.rows(row_ctx)) == data
        assert ctx.meter.cpu_ms == row_ctx.meter.cpu_ms

    def test_resolve_engine_validates(self):
        assert sqlengine.ENGINES == ("columnar", "row")
        assert sqlengine.DEFAULT_ENGINE == "columnar"
        assert resolve_engine("row") == "row"
        assert resolve_engine("columnar") == "columnar"
        assert resolve_engine(None) == "columnar"
        for unknown in ("turbo", "vector"):
            with pytest.raises(SqlError):
                resolve_engine(unknown)

    def test_small_batch_size_equivalent(self, joined_db):
        plan = joined_db.explain(
            "SELECT d.name, COUNT(*) FROM dept d "
            "JOIN emp e ON d.deptno = e.deptno GROUP BY d.name"
        )[0].plan
        baseline = execute_plan(
            plan, joined_db.storage, joined_db.params, engine="row"
        )
        tiny = execute_plan(
            plan,
            joined_db.storage,
            joined_db.params,
            engine="columnar",
            batch_size=2,
        )
        assert tiny.rows == baseline.rows
        assert tiny.meter.cpu_ms == baseline.meter.cpu_ms


# -- the pinned LIMIT meter exception ---------------------------------------


class TestLimitMeters:
    @pytest.fixture()
    def tiny_db(self):
        database = Database("limit")
        database.create_table(
            "t", Schema([Column("x", ColumnType.INT)])
        )
        database.load_rows("t", [(i,) for i in range(10)])
        database.analyze()
        return database

    def test_limit_scans_to_batch_boundary(self, tiny_db):
        # 10-row table, batch_size=4, LIMIT 6: the row engine stops
        # after metering exactly 6 rows; the columnar engine finishes
        # the second batch and meters 8.  This is the one documented
        # meter divergence (docs/execution.md).
        _plan, full = run_engines(tiny_db, "SELECT x FROM t")
        per_row = full["row"].meter.cpu_ms / 10
        _plan, limited = run_engines(tiny_db, "SELECT x FROM t LIMIT 6")

        reference = limited["row"]
        for engine in ENGINES:
            assert limited[engine].rows == reference.rows
            assert limited[engine].meter.tuples_out == 6
            assert limited[engine].meter.io_ms == reference.meter.io_ms

        scanned = {
            engine: round(limited[engine].meter.cpu_ms / per_row)
            for engine in ENGINES
        }
        assert scanned == {"row": 6, "columnar": 8}


# -- operator fast paths ----------------------------------------------------


@pytest.fixture(scope="module")
def ops_db():
    database = Database("ops")
    database.create_table(
        "dim",
        Schema(
            [
                Column("k", ColumnType.INT),
                Column("name", ColumnType.STR),
            ]
        ),
    )
    # Unique build keys (one row per k).
    database.load_rows(
        "dim", [(i, f"name_{i % 3}") for i in range(8)]
    )
    database.create_table(
        "fact",
        Schema(
            [
                Column("k", ColumnType.INT),
                Column("v", ColumnType.FLOAT),
                Column("tag", ColumnType.STR),
            ]
        ),
    )
    database.load_rows(
        "fact",
        [
            (i % 10, float(i), ["x", "y", None][i % 3])
            for i in range(40)
        ],
    )
    database.analyze()
    return database


class TestOperatorFastPaths:
    def test_unique_build_join_full_match(self, ops_db):
        # Every fact row with k < 8 matches exactly one dim row: the
        # passthrough gather path.
        assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f, dim d "
            "WHERE f.k = d.k AND f.k < 8",
        )

    def test_unique_build_join_partial_match(self, ops_db):
        # k in {8, 9} has no dim row: probe misses interleave with hits.
        assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f, dim d WHERE f.k = d.k",
        )

    def test_unique_build_outer_join_padding(self, ops_db):
        results = assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f "
            "LEFT JOIN dim d ON f.k = d.k",
        )
        assert any(
            name is None for _v, name in results["columnar"].rows
        )

    def test_non_unique_build_join(self, ops_db):
        # dim.name repeats: the general multi-match probe path.
        assert_all_equivalent(
            ops_db,
            "SELECT d1.k, d2.k FROM dim d1, dim d2 "
            "WHERE d1.name = d2.name",
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT f.k, COUNT(*) FROM fact f GROUP BY f.k",
            "SELECT f.tag, COUNT(*) FROM fact f GROUP BY f.tag",
            "SELECT f.k, f.tag, COUNT(*) FROM fact f GROUP BY f.k, f.tag",
        ],
        ids=["int-key", "dict-key", "multi-key"],
    )
    def test_count_only_grouping(self, ops_db, sql):
        assert_all_equivalent(ops_db, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT f.k FROM fact f",
            "SELECT DISTINCT f.tag FROM fact f",
            "SELECT DISTINCT f.v FROM fact f",
            "SELECT DISTINCT f.k, f.tag FROM fact f",
        ],
        ids=["int", "dict-with-null", "float", "multi"],
    )
    def test_distinct_paths(self, ops_db, sql):
        assert_all_equivalent(ops_db, sql)

    def test_dict_aware_like_and_in(self, ops_db):
        assert_all_equivalent(
            ops_db,
            "SELECT f.v FROM fact f WHERE f.tag LIKE 'x%'",
        )
        assert_all_equivalent(
            ops_db,
            "SELECT f.v FROM fact f WHERE f.tag NOT IN ('y')",
        )


# -- profiler and metrics ---------------------------------------------------


class TestObservability:
    SQL = (
        "SELECT f.v, d.name FROM fact f, dim d "
        "WHERE f.k = d.k AND f.v > 10.0"
    )

    def profiles(self, database, sql):
        plan = database.explain(sql)[0].plan
        captured = {}
        for engine in ENGINES:
            with profiling() as profiler:
                execute_plan(
                    plan,
                    database.storage,
                    database.params,
                    engine=engine,
                    batch_size=8,
                )
            captured[engine] = profiler.capture()
        return plan, captured

    def test_profiled_row_counts_identical_across_engines(self, ops_db):
        plan, captured = self.profiles(ops_db, self.SQL)
        nodes = [plan]
        while nodes:
            node = nodes.pop()
            counts = {
                engine: captured[engine].stats_for(node).rows_out
                for engine in ENGINES
            }
            assert len(set(counts.values())) == 1, (
                node.describe(),
                counts,
            )
            nodes.extend(node.children())

    def test_columnar_selectivity_recorded(self, ops_db):
        plan, captured = self.profiles(ops_db, self.SQL)
        profile = captured["columnar"]
        selectivities = [
            stats.selectivity
            for _node, stats in profile.operators()
            if stats.selectivity is not None
        ]
        # The filtered scan keeps a strict subset of its physical slots.
        assert selectivities
        assert any(s < 1.0 for s in selectivities)
        assert all(0.0 <= s <= 1.0 for s in selectivities)
        rendered = render_analyzed_plan(plan, profile)
        assert "sel=" in rendered
        # The row-engine profile never fabricates a selectivity.
        assert all(
            stats.selectivity is None
            for _node, stats in captured["row"].operators()
        )

    def test_engine_metrics_emitted(self, ops_db):
        plan = ops_db.explain(self.SQL)[0].plan
        sink = obs.configure(log_level=None)
        try:
            execute_plan(
                plan,
                ops_db.storage,
                ops_db.params,
                engine="columnar",
                batch_size=8,
            )
            assert (
                sink.metrics.counter_value(
                    "engine_batches_total", engine="columnar"
                )
                > 0
            )
            assert (
                sink.metrics.histogram(
                    "engine_rows_per_sec", engine="columnar"
                ).count
                >= 1
            )
        finally:
            obs.disable()
