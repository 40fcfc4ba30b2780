"""Round-trip tests for the expression-to-SQL printer.

Every :class:`Expression` node kind is rendered by
:func:`repro.algebra.sql.sql_expression` and evaluated by sqlite3 on a
one-row table; the result must equal :meth:`Expression.evaluate` on the
same row (with Python booleans mapping to SQL's 1/0, which compare equal).
The filter-context printer (:func:`repro.algebra.sql.sql_predicate`) is
held against :meth:`Expression.compile` through compiled ``Selection`` and
``Join`` plans: SQLite must keep exactly the rows the interpreter keeps.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import (
    Arithmetic,
    BooleanOp,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    Not,
    and_,
    attr,
    lit,
    or_,
)
from repro.algebra.operators import Join, RelationAccess, Selection
from repro.algebra.sql import (
    SQLPrintError,
    quote_identifier,
    sql_expression,
    sql_literal,
    sql_predicate,
)
from repro.backends import SQLiteBackend
from repro.engine.catalog import Database


def sqlite_eval(expression, row=None):
    """Evaluate a printed expression in SQLite against one bound row."""
    row = row or {}
    connection = sqlite3.connect(":memory:")
    try:
        text = sql_expression(expression)
        if row:
            cells = ", ".join(f"? AS {quote_identifier(name)}" for name in row)
            sql = f"SELECT {text} FROM (SELECT {cells})"
            return connection.execute(sql, tuple(row.values())).fetchone()[0]
        return connection.execute(f"SELECT {text}").fetchone()[0]
    finally:
        connection.close()


def normalise(value):
    """Python booleans surface as SQLite integers."""
    if isinstance(value, bool):
        return int(value)
    return value


def assert_roundtrip(expression, row=None):
    expected = normalise(expression.evaluate(row or {}))
    assert sqlite_eval(expression, row) == expected


ROW = {"a": 3, "b": 10, "s": "SP", "n": None, "f": 2.5}


class TestLiterals:
    @pytest.mark.parametrize(
        "value",
        [
            0,
            1,
            -42,
            10**15,
            2.5,
            -0.125,
            1e-9,
            "",
            "SP",
            "O'Brien",
            "it''s",
            'double "quoted"',
            "semi;colon -- comment */ /*",
            "newline\nand\ttab",
            "ünïcødé ✓",
            True,
            False,
        ],
    )
    def test_literal_roundtrip(self, value):
        assert_roundtrip(Literal(value))

    def test_null_literal(self):
        assert sqlite_eval(Literal(None)) is None

    @pytest.mark.parametrize(
        "value",
        [
            # SQLite's text-to-float parse is off by 1 ulp on repr for these
            # (found by the roundtrip property); the printer must emit the
            # exact power-of-two decomposition instead.
            1.8631083202209423e-301,
            -3.215028547198467e-18,
            5e-324,  # smallest subnormal
            -5e-324,
            2.2250738585072014e-308,  # smallest normal
            1.7976931348623157e308,  # largest finite
            -1.7976931348623157e308,
            0.30000000000000004,  # 17 significant digits
        ],
    )
    def test_extreme_floats_roundtrip_exactly(self, value):
        assert sqlite_eval(Literal(value)) == value

    def test_string_escaping_reaches_comparison(self):
        expression = Comparison("=", attr("s"), lit("O'Brien"))
        assert sqlite_eval(expression, {"s": "O'Brien"}) == 1
        assert sqlite_eval(expression, {"s": "other"}) == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_are_rejected(self, value):
        with pytest.raises(SQLPrintError):
            sql_literal(value)

    def test_unprintable_value_is_rejected(self):
        with pytest.raises(SQLPrintError):
            sql_literal(object())

    @given(st.text().filter(lambda t: "\x00" not in t))
    def test_any_text_roundtrips(self, text):
        assert sqlite_eval(Literal(text)) == text

    def test_nul_in_text_is_rejected(self):
        # sqlite3 refuses statements containing NUL; fail at print time.
        with pytest.raises(SQLPrintError):
            sql_literal("a\x00b")

    @given(
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    def test_any_number_roundtrips(self, number):
        result = sqlite_eval(Literal(number))
        if isinstance(number, float) and math.isnan(result or 0):
            pytest.fail("NaN leaked through")
        assert result == number


class TestAttributes:
    def test_attribute_reads_column(self):
        assert_roundtrip(attr("a"), ROW)

    def test_quoted_identifier_with_spaces_and_quotes(self):
        weird = 'col "x" y'
        assert sqlite_eval(attr(weird), {weird: 7}) == 7


class TestComparisons:
    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("pair", [(3, 10), (10, 3), (3, 3)])
    def test_all_operators(self, op, pair):
        left, right = pair
        assert_roundtrip(Comparison(op, lit(left), lit(right)))

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_null_comparisons_are_false_not_unknown(self, op):
        # The interpreter's two-valued semantics: NULL comparisons are 0.
        assert sqlite_eval(Comparison(op, attr("n"), lit(1)), ROW) == 0
        assert sqlite_eval(Comparison(op, lit(None), attr("a")), ROW) == 0

    def test_attribute_vs_attribute(self):
        assert_roundtrip(Comparison("<", attr("a"), attr("b")), ROW)

    def test_string_comparison(self):
        assert_roundtrip(Comparison("=", attr("s"), lit("SP")), ROW)


class TestBooleanAndNot:
    def test_and_or_two_operands(self):
        true = Comparison("<", attr("a"), attr("b"))
        false = Comparison(">", attr("a"), attr("b"))
        assert_roundtrip(and_(true, false), ROW)
        assert_roundtrip(or_(true, false), ROW)

    def test_many_operands(self):
        clauses = [Comparison("<", lit(i), lit(i + 1)) for i in range(4)]
        assert_roundtrip(BooleanOp("and", tuple(clauses)), ROW)
        assert_roundtrip(BooleanOp("or", tuple(clauses)), ROW)

    def test_not_over_guarded_null_comparison(self):
        # evaluate: NOT(False) = True; the NULL guard keeps SQL two-valued too.
        expression = Not(Comparison("=", attr("n"), lit(1)))
        assert sqlite_eval(expression, ROW) == 1
        assert_roundtrip(expression, ROW)

    @pytest.mark.parametrize("value", [None, 0, 1, 2, 0.0, -3])
    def test_not_over_raw_attribute_matches_python_truthiness(self, value):
        # NOT NULL is UNKNOWN in raw SQL; the boolean-context guard must
        # yield Python's `not bool(x)` instead (NULL and 0 are false).
        assert_roundtrip(Not(attr("x")), {"x": value})

    @pytest.mark.parametrize("value", [None, 0, 1, 7])
    def test_boolean_op_over_raw_attributes(self, value):
        row = {"x": value, "y": 1}
        assert_roundtrip(BooleanOp("and", (attr("x"), attr("y"))), row)
        assert_roundtrip(BooleanOp("or", (attr("x"), attr("y"))), row)


class TestArithmetic:
    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_operators(self, op):
        assert_roundtrip(Arithmetic(op, attr("b"), attr("a")), ROW)

    def test_division_is_float_like_python(self):
        # SQLite's native 5/2 is 2; the printer must match Python's 2.5.
        assert sqlite_eval(Arithmetic("/", lit(5), lit(2))) == 2.5

    def test_null_propagates(self):
        assert sqlite_eval(Arithmetic("+", attr("n"), lit(1)), ROW) is None
        assert sqlite_eval(Arithmetic("/", attr("n"), lit(2)), ROW) is None

    def test_division_by_zero_is_null_documented_deviation(self):
        # The interpreter raises ZeroDivisionError; SQL cannot raise, so the
        # printed expression yields NULL (documented in repro.algebra.sql).
        with pytest.raises(ZeroDivisionError):
            Arithmetic("/", lit(1), lit(0)).evaluate({})
        assert sqlite_eval(Arithmetic("/", lit(1), lit(0))) is None

    def test_nested_revenue_expression(self):
        revenue = Arithmetic(
            "*", attr("f"), Arithmetic("-", lit(1), Arithmetic("/", attr("a"), attr("b")))
        )
        assert_roundtrip(revenue, ROW)


class TestFunctionCalls:
    @pytest.mark.parametrize("name", ["least", "greatest"])
    def test_least_greatest(self, name):
        assert_roundtrip(FunctionCall(name, (attr("a"), attr("b"))), ROW)
        assert_roundtrip(FunctionCall(name, (lit(5), lit(2), lit(9))), ROW)

    @pytest.mark.parametrize("name", ["least", "greatest"])
    def test_many_arguments_stay_correct_and_small(self, name):
        names = [f"c{i}" for i in range(10)]
        row = {n: v for n, v in zip(names, [7, 3, None, 9, 1, 8, None, 2, 6, 5])}
        expression = FunctionCall(name, tuple(attr(n) for n in names))
        assert_roundtrip(expression, row)
        # Single CASE ladder: quadratic growth, not the 3^n of a pairwise fold.
        assert len(sql_expression(expression)) < 10_000

    @pytest.mark.parametrize("name", ["least", "greatest"])
    def test_least_greatest_ignore_null(self, name):
        # Unlike SQLite's scalar min/max, NULL arguments are skipped.
        expression = FunctionCall(name, (attr("n"), attr("a")))
        assert sqlite_eval(expression, ROW) == ROW["a"]

    def test_abs(self):
        assert_roundtrip(FunctionCall("abs", (lit(-7),)), ROW)
        assert sqlite_eval(FunctionCall("abs", (attr("n"),)), ROW) is None

    def test_coalesce(self):
        assert_roundtrip(FunctionCall("coalesce", (attr("n"), attr("a"))), ROW)
        assert_roundtrip(FunctionCall("coalesce", (attr("a"), attr("b"))), ROW)
        # Single-argument coalesce (SQLite would reject COALESCE(x)).
        assert_roundtrip(FunctionCall("coalesce", (attr("a"),)), ROW)


class TestIsNull:
    def test_is_null(self):
        assert_roundtrip(IsNull(attr("n")), ROW)
        assert_roundtrip(IsNull(attr("a")), ROW)

    def test_is_not_null(self):
        assert_roundtrip(IsNull(attr("n"), negated=True), ROW)
        assert_roundtrip(IsNull(attr("a"), negated=True), ROW)


class TestRewriterShapes:
    """The exact expression shapes REWR emits must print and agree."""

    def test_interval_overlap_conjunct(self):
        overlap = and_(
            Comparison("<", attr("lb"), attr("re")),
            Comparison("<", attr("rb"), attr("le")),
        )
        for row in [
            {"lb": 0, "le": 5, "rb": 3, "re": 8},
            {"lb": 0, "le": 3, "rb": 3, "re": 8},
            {"lb": 5, "le": 8, "rb": 0, "re": 2},
        ]:
            assert_roundtrip(overlap, row)

    def test_intersection_bounds(self):
        begin = FunctionCall("greatest", (attr("lb"), attr("rb")))
        end = FunctionCall("least", (attr("le"), attr("re")))
        row = {"lb": 0, "le": 5, "rb": 3, "re": 8}
        assert_roundtrip(begin, row)
        assert_roundtrip(end, row)


# -- filter context: sql_predicate in WHERE clauses ----------------------------------------
#
# The differential below runs whole plans, so it also covers how the
# compiler places the printed predicate: a Selection's WHERE over one table
# and a Join's WHERE over two qualified inputs.

NUMBERS = [None, 0, 1, 2, 3, 1.0, 2.5, -1.5]
#: Join/selection keys of mixed storage classes: 1 and 1.0 are equal, '1' is not.
KEYS = [None, 0, 1, 1.0, 2.5, "1", "x", ""]

LEFT_SCHEMA = ("a", "b", "k")
RIGHT_SCHEMA = ("c", "d", "m")


def rows_strategy():
    row = st.tuples(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS), st.sampled_from(KEYS))
    return st.lists(row, min_size=1, max_size=5)


def predicates(numeric, keys):
    """AND/OR/NOT trees over comparisons of the given attributes and literals.

    Ordering comparisons stay on the numeric attributes (Python refuses to
    order a number and a string; the engine would raise where SQLite sorts
    by storage class); ``=``/``!=`` also range over the mixed-type keys.
    """
    numeric_operand = st.one_of(
        st.sampled_from([attr(name) for name in numeric]),
        st.sampled_from(NUMBERS).map(lit),
    )
    key_operand = st.one_of(
        st.sampled_from([attr(name) for name in keys]), st.sampled_from(KEYS).map(lit)
    )
    comparison = st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            numeric_operand,
            numeric_operand,
        ),
        st.builds(Comparison, st.sampled_from(["=", "!="]), key_operand, key_operand),
        st.builds(IsNull, st.sampled_from([attr(name) for name in numeric + keys])),
    )
    return st.recursive(
        comparison,
        lambda inner: st.one_of(
            st.builds(lambda x, y: and_(x, y), inner, inner),
            st.builds(lambda x, y: or_(x, y), inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=6,
    )


def sqlite_rows(plan, database):
    return Counter(SQLiteBackend(optimize=False).execute(plan, database).rows)


class TestFilterContext:
    def test_comparisons_under_and_or_print_bare(self):
        predicate = and_(
            Comparison("=", attr("a"), attr("c")),
            or_(Comparison("<", attr("b"), lit(3)), Not(Comparison("=", attr("k"), attr("m")))),
        )
        text = sql_predicate(predicate)
        assert text.startswith('("a" = "c" AND ("b" < 3 OR (NOT (CASE WHEN')
        # Under NOT the two-valued guard stays: UNKNOWN would drop the row.
        assert text.count("CASE") == 1

    def test_column_printer_qualifies_attributes(self):
        predicate = Comparison("=", attr("a"), attr("c"))
        assert sql_predicate(predicate, lambda name: f"t.{name}") == "t.a = t.c"
        assert sql_expression(attr("a"), lambda name: f"t.{name}") == "t.a"

    @given(rows=rows_strategy(), predicate=predicates(["a", "b"], ["k"]))
    def test_selection_matches_interpreter(self, rows, predicate):
        database = Database()
        database.create_table("r", LEFT_SCHEMA, rows)
        keep = predicate.compile(LEFT_SCHEMA)
        expected = Counter(row for row in rows if keep(row))
        assert sqlite_rows(Selection(RelationAccess("r"), predicate), database) == expected

    @given(
        left=rows_strategy(),
        right=rows_strategy(),
        predicate=predicates(["a", "b", "c", "d"], ["k", "m"]),
    )
    def test_join_predicate_matches_interpreter(self, left, right, predicate):
        database = Database()
        database.create_table("r", LEFT_SCHEMA, left)
        database.create_table("s", RIGHT_SCHEMA, right)
        keep = predicate.compile(LEFT_SCHEMA + RIGHT_SCHEMA)
        expected = Counter(l + r for l in left for r in right if keep(l + r))
        plan = Join(RelationAccess("r"), RelationAccess("s"), predicate)
        assert sqlite_rows(plan, database) == expected

    def test_null_join_keys_never_match(self):
        database = Database()
        database.create_table("r", LEFT_SCHEMA, [(1, 1, None), (2, 2, 1)])
        database.create_table("s", RIGHT_SCHEMA, [(7, 7, None), (8, 8, 1)])
        plan = Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("k"), attr("m")))
        assert sqlite_rows(plan, database) == Counter({(2, 2, 1, 8, 8, 1): 1})

    def test_negated_equality_keeps_rows_with_nulls(self):
        # evaluate: (NULL = 1) is false, so NOT(...) is true and the row stays;
        # bare three-valued SQL would have dropped it.
        database = Database()
        database.create_table("r", LEFT_SCHEMA, [(None, 1, "x"), (1, 1, "x"), (2, None, "x")])
        plan = Selection(RelationAccess("r"), Not(Comparison("=", attr("a"), attr("b"))))
        assert sqlite_rows(plan, database) == Counter({(None, 1, "x"): 1, (2, None, "x"): 1})

    def test_mixed_type_keys_compare_without_coercion(self):
        database = Database()
        database.create_table("r", LEFT_SCHEMA, [(0, 0, 1), (0, 0, "1"), (0, 0, 1.0)])
        database.create_table("s", RIGHT_SCHEMA, [(9, 9, 1), (9, 9, "1")])
        plan = Join(RelationAccess("r"), RelationAccess("s"), Comparison("=", attr("k"), attr("m")))
        matched = sqlite_rows(plan, database)
        # 1 = 1 and 1.0 = 1 (numeric; one Counter key in Python too), '1' = '1'
        # (text); a number never equals a string.
        assert matched == Counter({(0, 0, 1, 9, 9, 1): 2, (0, 0, "1", 9, 9, "1"): 1})
