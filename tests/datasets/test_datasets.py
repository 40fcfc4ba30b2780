"""Tests for the dataset generators and the benchmark workloads."""

import pytest

from repro.datasets import (
    EMPLOYEE_TABLES,
    EMPLOYEE_WORKLOAD,
    TPCH_TABLES,
    TPCH_WORKLOAD,
    EmployeesConfig,
    TPCBiHConfig,
    employee_queries,
    generate_employees,
    generate_tpcbih,
    tpch_queries,
)
from repro.datasets.running_example import (
    EXPECTED_ONDUTY,
    EXPECTED_SKILLREQ,
    WORKS_ROWS,
    load_running_example,
)
from repro.rewriter import QueryPipeline


class TestRunningExampleData:
    def test_figure_1a_contents(self):
        assert len(WORKS_ROWS) == 4
        assert ("Ann", "SP", 3, 10) in WORKS_ROWS

    def test_expected_results_are_consistent(self):
        # gaps + busy periods in Figure 1b cover the whole day
        covered = sorted(
            interval for intervals in EXPECTED_ONDUTY.values() for interval in intervals
        )
        points = {p for b, e in covered for p in range(b, e)}
        assert points == set(range(24))
        assert set(EXPECTED_SKILLREQ) == {"SP", "NS"}

    def test_load_running_example_registers_tables(self):
        pipeline = load_running_example()
        assert "works" in pipeline.database
        assert "assign" in pipeline.database


class TestEmployeesGenerator:
    @pytest.fixture(scope="class")
    def database(self):
        return generate_employees(EmployeesConfig(scale=0.05))

    def test_all_tables_present_with_expected_schemas(self, database):
        for name, (data_attributes, period) in EMPLOYEE_TABLES.items():
            table = database.table(name)
            assert table.schema == data_attributes + period
            assert database.period_of(name) == period

    def test_deterministic(self):
        config = EmployeesConfig(scale=0.05)
        first = generate_employees(config)
        second = generate_employees(config)
        for name in EMPLOYEE_TABLES:
            assert first.table(name).rows == second.table(name).rows

    def test_relative_cardinalities(self, database):
        counts = database.row_counts()
        assert counts["salaries"] > counts["employees"]
        assert counts["departments"] <= 9
        assert counts["dept_manager"] >= 9

    def test_periods_within_domain(self, database):
        config = EmployeesConfig(scale=0.05)
        for name in EMPLOYEE_TABLES:
            table = database.table(name)
            begin = table.column_index("t_begin")
            end = table.column_index("t_end")
            for row in table.rows:
                assert 0 <= row[begin] < row[end] <= config.months

    def test_salary_histories_are_contiguous_per_employee(self, database):
        table = database.table("salaries")
        by_employee = {}
        for emp_no, _salary, begin, end in table.rows:
            by_employee.setdefault(emp_no, []).append((begin, end))
        for periods in by_employee.values():
            periods.sort()
            for (b1, e1), (b2, _e2) in zip(periods, periods[1:]):
                assert e1 == b2  # consecutive periods meet exactly

    def test_scale_controls_size(self):
        small = generate_employees(EmployeesConfig(scale=0.02))
        large = generate_employees(EmployeesConfig(scale=0.1))
        assert len(large.table("salaries")) > len(small.table("salaries"))


class TestTPCBiHGenerator:
    @pytest.fixture(scope="class")
    def database(self):
        return generate_tpcbih(TPCBiHConfig(scale_factor=0.05))

    def test_all_tables_present(self, database):
        for name, (data_attributes, period) in TPCH_TABLES.items():
            assert database.table(name).schema == data_attributes + period

    def test_deterministic(self):
        config = TPCBiHConfig(scale_factor=0.05)
        assert (
            generate_tpcbih(config).table("lineitem").rows
            == generate_tpcbih(config).table("lineitem").rows
        )

    def test_lineitem_is_largest_table(self, database):
        counts = database.row_counts()
        assert counts["lineitem"] == max(counts.values())

    def test_foreign_keys_resolve(self, database):
        order_keys = set(database.table("orders").column("o_orderkey"))
        for orderkey in database.table("lineitem").column("l_orderkey"):
            assert orderkey in order_keys
        nation_keys = set(database.table("nation").column("n_nationkey"))
        for nationkey in database.table("customer").column("c_nationkey"):
            assert nationkey in nation_keys

    def test_periods_within_domain(self, database):
        config = TPCBiHConfig(scale_factor=0.05)
        table = database.table("lineitem")
        begin = table.column_index("t_begin")
        end = table.column_index("t_end")
        for row in table.rows:
            assert 0 <= row[begin] < row[end] <= config.months


class TestWorkloads:
    def test_workload_names_match_the_paper(self):
        assert list(EMPLOYEE_WORKLOAD) == [
            "join-1", "join-2", "join-3", "join-4", "agg-1", "agg-2", "agg-3",
            "agg-join", "diff-1", "diff-2",
        ]
        assert list(TPCH_WORKLOAD) == ["Q1", "Q5", "Q6", "Q7", "Q8", "Q9", "Q12", "Q14", "Q19"]

    def test_employee_queries_execute(self):
        config = EmployeesConfig(scale=0.02)
        pipeline = QueryPipeline(config.domain, database=generate_employees(config))
        for name, query in employee_queries().items():
            result = pipeline.execute(query)
            assert result.schema[-2:] == ("t_begin", "t_end"), name

    def test_tpch_queries_execute(self):
        config = TPCBiHConfig(scale_factor=0.05)
        pipeline = QueryPipeline(config.domain, database=generate_tpcbih(config))
        for name, query in tpch_queries().items():
            result = pipeline.execute(query)
            assert result.schema[-2:] == ("t_begin", "t_end"), name

    def test_aggregation_queries_cover_gaps(self):
        """The ungrouped aggregations (agg-2, Q6, Q14, Q19) produce gap rows."""
        config = EmployeesConfig(scale=0.02)
        pipeline = QueryPipeline(config.domain, database=generate_employees(config))
        result = pipeline.execute(employee_queries()["agg-2"])
        assert len(result) > 0

    def test_employee_workload_matches_logical_model_at_tiny_scale(self):
        """End-to-end correctness of a representative workload subset."""
        from repro.logical_model import PeriodDatabase, evaluate_period_query
        from repro.rewriter import periodenc

        config = EmployeesConfig(scale=0.01)
        database = generate_employees(config)
        pipeline = QueryPipeline(config.domain, database=database)

        logical = PeriodDatabase(pipeline.period_semiring.base, config.domain)
        for name in database.names():
            period = database.period_of(name)
            table = database.table(name)
            begin = table.column_index(period[0])
            end = table.column_index(period[1])
            data_indexes = [
                i for i, a in enumerate(table.schema) if a not in period
            ]
            facts = [
                (tuple(row[i] for i in data_indexes), row[begin], row[end], 1)
                for row in table.rows
            ]
            logical.create_relation(
                name, [table.schema[i] for i in data_indexes], facts
            )

        queries = employee_queries()
        for name in ("join-3", "agg-2", "agg-3", "diff-1"):
            assert pipeline.execute_decoded(queries[name]) == evaluate_period_query(
                queries[name], logical
            ), name
