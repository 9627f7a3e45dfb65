"""The exact compile memos: parse per text, cost per node per estimator,
signature per node.

Each memo must return what a cold computation returns, and must pay for
itself: these tests pin both the bit-exact values and the deterministic
work counts (no timing).
"""

from collections import Counter

import pytest

import repro.sqlengine.optimizer as optimizer_module
import repro.sqlengine.parser as parser_module
from repro.harness import build_federation
from repro.sim.server import RemoteServer
from repro.sqlengine import ParseError, PhysicalPlan, bind, parse
from repro.sqlengine.cost import ServerProfile
from repro.sqlengine.physical import CostEstimator
from repro.workload import TEST_SCALE
from repro.workload.queries import QT1, QT4

#: Multi-join DP, fixed outer-join chain, and every finishing wrapper.
QUERIES = (
    QT1.instance(3).sql,
    QT4.instance(5).sql,
    "SELECT DISTINCT o.priority, l.quantity FROM orders o "
    "LEFT JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 4000 ORDER BY o.priority LIMIT 7",
    "SELECT c.nation, p.category, COUNT(*) AS n FROM customer c "
    "JOIN orders o ON c.custkey = o.custkey "
    "JOIN lineitem l ON o.orderkey = l.orderkey "
    "JOIN product p ON l.prodkey = p.prodkey "
    "WHERE p.price > 50 GROUP BY c.nation, p.category "
    "HAVING COUNT(*) > 1",
)
QUERY_IDS = ("qt1", "qt4", "outer-chain-finish", "four-way-having")


@pytest.fixture()
def database(sample_databases):
    return sample_databases["S1"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def _cost_bits(cost):
    return tuple(
        float.hex(getattr(cost, part))
        for part in ("first_tuple", "total", "rows", "width_bytes")
    )


@pytest.fixture()
def recorded_estimators(monkeypatch):
    """Every CostEstimator made while the test runs, in order."""
    made = []

    class Recording(CostEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(optimizer_module, "CostEstimator", Recording)
    monkeypatch.setattr("repro.sqlengine.physical.CostEstimator", Recording)
    return made


class TestParseMemo:
    def test_same_text_shares_one_ast(self):
        sql = "SELECT o.orderkey FROM orders o WHERE o.totalprice > 17.25"
        assert parse(sql) is parse(sql)
        assert parse(sql) == parser_module._Parser(
            parser_module.tokenize(sql)
        ).parse_select()

    def test_parse_error_is_raised_every_time(self, monkeypatch):
        runs = []
        tokenize = parser_module.tokenize

        def counting(text):
            runs.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser_module, "tokenize", counting)
        for _ in range(2):
            with pytest.raises(ParseError):
                parse("SELEC memo_parse_error")
        assert len(runs) == 2

    def test_fresh_full_pushdown_query_parses_twice(
        self, sample_databases, monkeypatch
    ):
        """Decompose parses the federated text; the three candidate
        servers' explains of the one fragment share a single parse of
        the fragment text."""
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        deployment.integrator.submit(QT1.instance(0).sql)  # first probe
        runs = []
        explains = []
        tokenize = parser_module.tokenize
        explain = RemoteServer.explain

        def counting_tokenize(text):
            runs.append(text)
            return tokenize(text)

        def counting_explain(server, sql, t_ms=0.0):
            explains.append(sql)
            return explain(server, sql, t_ms)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(RemoteServer, "explain", counting_explain)
        sql = QT1.instance(4_242_424).sql
        result = deployment.integrator.submit(sql)

        (choice,) = result.plan.choices
        assert len(choice.fragment.candidate_servers) == 3
        assert explains == [choice.fragment.sql] * 3
        assert runs == [sql, choice.fragment.sql]


class TestCostMemo:
    @pytest.mark.parametrize("sql", QUERIES, ids=QUERY_IDS)
    def test_each_node_costed_at_most_once_per_optimize(
        self, database, monkeypatch, sql
    ):
        costed = Counter()
        for cls in (PhysicalPlan, *_subclasses(PhysicalPlan)):
            if "_estimate_cost" not in vars(cls):
                continue
            body = vars(cls)["_estimate_cost"]

            def counting(node, estimator, body=body):
                costed[node] += 1
                return body(node, estimator)

            monkeypatch.setattr(cls, "_estimate_cost", counting)
        block = bind(parse(sql), database.catalog)
        for _ in range(2):
            costed.clear()
            candidates = database.optimizer.optimize(block)
            assert candidates
            assert max(costed.values()) == 1
            for candidate in candidates:
                assert all(node in costed for node in _walk(candidate.plan))

    @pytest.mark.parametrize("sql", QUERIES, ids=QUERY_IDS)
    def test_memoised_costs_equal_cold_recost_bit_for_bit(
        self, database, recorded_estimators, sql
    ):
        candidates = database.explain(sql)
        (estimator,) = recorded_estimators
        assert len(estimator.memo) > 0
        for node, cost in estimator.memo.items():
            cold = node.estimate_cost(
                CostEstimator(
                    estimator.params, estimator.profile, estimator.stats
                )
            )
            assert _cost_bits(cost) == _cost_bits(cold), node.describe()
        for candidate in candidates:
            assert candidate.cost is estimator.memo[candidate.plan]

    def test_load_adjusted_quote_never_sees_the_explain_memo(
        self, database, recorded_estimators
    ):
        best = database.explain(QT4.instance(5).sql)[0]
        (explain_estimator,) = recorded_estimators
        explained = dict(explain_estimator.memo)
        loaded = ServerProfile(
            cpu_speed=database.profile.cpu_speed / 3.0,
            io_speed=database.profile.io_speed / 2.0,
        )

        quoted = database.estimate_plan(best.plan, profile=loaded)

        _, quote_estimator = recorded_estimators
        assert quote_estimator.memo is not explain_estimator.memo
        assert explain_estimator.memo == explained
        assert quote_estimator.memo[best.plan] is quoted
        for node, cost in quote_estimator.memo.items():
            assert cost is not explained.get(node)
        cold = best.plan.estimate_cost(
            CostEstimator(database.params, loaded, quote_estimator.stats)
        )
        assert _cost_bits(quoted) == _cost_bits(cold)
        assert quoted.total > best.cost.total


class TestSignatureMemo:
    @pytest.mark.parametrize("sql", QUERIES, ids=QUERY_IDS)
    def test_memoised_signature_equals_cold_rendering(self, database, sql):
        def cold(plan):
            inner = ",".join(cold(child) for child in plan.children())
            return f"{plan.describe()}[{inner}]" if inner else plan.describe()

        for candidate in database.explain(sql):
            for node in _walk(candidate.plan):
                assert node.signature() == cold(node)
                assert node.signature() is node.signature()
