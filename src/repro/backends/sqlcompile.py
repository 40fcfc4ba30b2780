"""Compiling logical plans (REWR output included) to a single SQL statement.

This is the code generator the paper's middleware ships to the host DBMS:
every operator of ``RA^agg`` maps to plain SQL with bag semantics, and the
three physical temporal operators of the rewriting -- coalesce, split and
the fused temporal aggregation of Section 9 -- are lowered to the paper's
window-function formulations (running sums over +1/-1 interval events,
``LEAD`` to the next changepoint, per-group segmentation).

Design notes:

* the plan DAG is emitted as a **flat chain of CTEs** -- one ``WITH`` entry
  per operator, each referencing its children by name -- rather than nested
  derived tables: rewritten TPC-BiH plans nest 30+ operators deep, which
  overflows SQLite's fixed parser stack when expressed as subqueries, and a
  flat chain also keeps the generated text readable and deduplicates shared
  sub-plans;
* bag semantics are preserved throughout: union is ``UNION ALL`` and bag
  difference (``EXCEPT ALL`` with multiplicities, which SQLite lacks) is
  expressed with window counts -- rows of both sides are tagged and
  numbered per value group, and a left row survives while its per-group row
  number exceeds the right side's count;
* multiplicities in the coalesce output (a changepoint with ``n`` open
  intervals emits ``n`` duplicate rows) come from a ``WITH RECURSIVE``
  counter joined on ``n <= open_count``;
* value-group equality uses SQLite's NULL-safe ``IS`` comparison so NULL
  padding rows group exactly like the engine's Python ``None`` keys.

The emitted dialect is SQLite's; the printer underneath
(:mod:`repro.algebra.sql`) and the operator shapes here stick to widely
shared SQL, so a PostgreSQL/DuckDB backend mostly needs to swap ``IS`` for
``IS NOT DISTINCT FROM`` and the counter CTE for ``generate_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..algebra.operators import (
    Aggregation,
    AggregateSpec,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from ..algebra.sql import quote_identifier, sql_expression, sql_literal
from ..engine.catalog import Database
from ..errors import BackendError
from ..rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)

__all__ = ["CompiledQuery", "SQLCompiler", "compile_plan"]


@dataclass(frozen=True)
class CompiledQuery:
    """A complete SELECT statement plus its positional output schema."""

    sql: str
    schema: Tuple[str, ...]


@dataclass(frozen=True)
class _Rel:
    """A compiled sub-plan: a FROM-able name (base table or CTE) + schema."""

    name: str  # already quoted
    schema: Tuple[str, ...]


def compile_plan(plan: Operator, database: Database) -> CompiledQuery:
    """Compile a logical plan against a catalog into one SQL statement."""
    return SQLCompiler(database).compile(plan)


class SQLCompiler:
    """One-shot compiler; accumulates CTEs while walking the plan."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._names = 0
        self._ctes: List[Tuple[str, str]] = []  # (header, body)
        self._memo: Dict[int, _Rel] = {}

    # -- plumbing --------------------------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        """A generated identifier that cannot collide with user attributes."""
        self._names += 1
        return f"__{stem}_{self._names}"

    def _cte(self, stem: str, body: str, header_columns: str = "") -> str:
        """Append a CTE and return its quoted name."""
        name = quote_identifier(self._fresh(stem))
        self._ctes.append((name + header_columns, body))
        return name

    def _recursive_counter(self, bound_sql: str) -> Tuple[str, str]:
        """A counter CTE ``1..bound`` (quoted name, quoted column)."""
        n = quote_identifier(self._fresh("n"))
        name = quote_identifier(self._fresh("mult"))
        body = (
            f"SELECT 1 UNION ALL SELECT {n} + 1 FROM {name} WHERE {n} < ({bound_sql})"
        )
        self._ctes.append((f"{name}({n})", body))
        return name, n

    @staticmethod
    def _columns(names: Tuple[str, ...], qualifier: str = "") -> str:
        prefix = qualifier + "." if qualifier else ""
        return ", ".join(prefix + quote_identifier(n) for n in names)

    @staticmethod
    def _null_safe_equal(left: str, right: str) -> str:
        # SQLite's IS is NULL-safe equality (SQL standard: IS NOT DISTINCT FROM).
        return f"{left} IS {right}"

    def _check_schema(self, plan: Operator, schema: Tuple[str, ...]) -> None:
        if not schema:
            raise BackendError(f"cannot compile zero-column relation {plan!r} to SQL")

    # -- entry point -------------------------------------------------------------------------

    def compile(self, plan: Operator) -> CompiledQuery:
        relation = self._compile(plan)
        body = f"SELECT {self._columns(relation.schema)} FROM {relation.name}"
        if self._ctes:
            chain = ",\n".join(
                f"{header} AS (\n{cte_body}\n)" for header, cte_body in self._ctes
            )
            # RECURSIVE is harmless for ordinary CTEs and required whenever a
            # coalesce emitted its multiplicity counter.
            sql = f"WITH RECURSIVE {chain}\n{body}"
        else:
            sql = body
        return CompiledQuery(sql, relation.schema)

    # -- dispatch ----------------------------------------------------------------------------

    def _compile(self, plan: Operator) -> _Rel:
        # Operators are immutable, so a sub-plan referenced twice (the
        # rewriter reuses children, e.g. split(R, R)) compiles to one CTE.
        memoised = self._memo.get(id(plan))
        if memoised is not None:
            return memoised
        relation = self._compile_fresh(plan)
        self._check_schema(plan, relation.schema)
        self._memo[id(plan)] = relation
        return relation

    def _compile_fresh(self, plan: Operator) -> _Rel:
        if isinstance(plan, RelationAccess):
            return self._relation(plan)
        if isinstance(plan, ConstantRelation):
            return self._constant(plan)
        if isinstance(plan, Selection):
            return self._selection(plan)
        if isinstance(plan, Projection):
            return self._projection(plan)
        if isinstance(plan, Rename):
            return self._rename(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, Union):
            return self._union(plan)
        if isinstance(plan, Difference):
            return self._difference(plan)
        if isinstance(plan, Aggregation):
            return self._aggregation(plan)
        if isinstance(plan, Distinct):
            return self._distinct(plan)
        if isinstance(plan, CoalesceOperator):
            return self._coalesce(plan)
        if isinstance(plan, SplitOperator):
            return self._split(plan)
        if isinstance(plan, TemporalAggregateOperator):
            return self._temporal_aggregate(plan)
        raise BackendError(f"cannot compile operator {type(plan).__name__} to SQL")

    # -- leaves -------------------------------------------------------------------------------

    def _relation(self, plan: RelationAccess) -> _Rel:
        if plan.name not in self.database:
            raise BackendError(f"unknown table {plan.name!r}")
        schema = self.database.table(plan.name).schema
        return _Rel(quote_identifier(plan.name), schema)

    def _constant(self, plan: ConstantRelation) -> _Rel:
        schema = tuple(plan.schema)
        self._check_schema(plan, schema)
        if not plan.rows:
            nulls = ", ".join(f"NULL AS {quote_identifier(n)}" for n in schema)
            return _Rel(self._cte("const", f"SELECT {nulls} WHERE 0"), schema)
        selects: List[str] = []
        for position, row in enumerate(plan.rows):
            if position == 0:
                cells = ", ".join(
                    f"{sql_literal(v)} AS {quote_identifier(n)}"
                    for v, n in zip(row, schema)
                )
            else:
                cells = ", ".join(sql_literal(v) for v in row)
            selects.append(f"SELECT {cells}")
        return _Rel(self._cte("const", "\nUNION ALL\n".join(selects)), schema)

    # -- classical operators ------------------------------------------------------------------

    def _selection(self, plan: Selection) -> _Rel:
        child = self._compile(plan.child)
        body = (
            f"SELECT {self._columns(child.schema)} FROM {child.name}\n"
            f"WHERE {sql_expression(plan.predicate)}"
        )
        return _Rel(self._cte("sel", body), child.schema)

    def _projection(self, plan: Projection) -> _Rel:
        child = self._compile(plan.child)
        cells = ", ".join(
            f"{sql_expression(expr)} AS {quote_identifier(name)}"
            for expr, name in plan.columns
        )
        body = f"SELECT {cells} FROM {child.name}"
        return _Rel(self._cte("proj", body), plan.output_names)

    def _rename(self, plan: Rename) -> _Rel:
        child = self._compile(plan.child)
        renames = dict(plan.renames)
        missing = set(renames) - set(child.schema)
        if missing:
            raise BackendError(f"cannot rename unknown attributes {sorted(missing)}")
        cells = ", ".join(
            f"{quote_identifier(old)} AS {quote_identifier(renames.get(old, old))}"
            for old in child.schema
        )
        body = f"SELECT {cells} FROM {child.name}"
        schema = tuple(renames.get(name, name) for name in child.schema)
        return _Rel(self._cte("ren", body), schema)

    def _join(self, plan: Join) -> _Rel:
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        overlap = set(left.schema) & set(right.schema)
        if overlap:
            raise BackendError(
                f"join inputs share attributes {sorted(overlap)}; rename first"
            )
        # Aliases allow the same relation name on both sides; the disjoint
        # schemas keep unqualified attribute references unambiguous.
        left_alias = quote_identifier(self._fresh("jl"))
        right_alias = quote_identifier(self._fresh("jr"))
        body = (
            f"SELECT {self._columns(left.schema, left_alias)}, "
            f"{self._columns(right.schema, right_alias)}\n"
            f"FROM {left.name} AS {left_alias}, {right.name} AS {right_alias}"
        )
        if plan.predicate is not None:
            body += f"\nWHERE {sql_expression(plan.predicate)}"
        return _Rel(self._cte("join", body), left.schema + right.schema)

    def _union(self, plan: Union) -> _Rel:
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        if len(left.schema) != len(right.schema):
            raise BackendError(
                f"union-incompatible schemas {left.schema} and {right.schema}"
            )
        body = (
            f"SELECT {self._columns(left.schema)} FROM {left.name}\n"
            f"UNION ALL\n"
            f"SELECT {self._columns(right.schema)} FROM {right.name}"
        )
        return _Rel(self._cte("un", body), left.schema)

    def _difference(self, plan: Difference) -> _Rel:
        """``EXCEPT ALL`` via window counts (no multiset EXCEPT in SQLite).

        Both sides are tagged and unioned; per value group, rows are
        numbered per side and the right side's cardinality is a windowed sum
        of the tags.  A left row survives iff its number exceeds that count
        -- i.e. ``max(0, m - n)`` copies per group, the annotation monus.
        """
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        if len(left.schema) != len(right.schema):
            raise BackendError(
                f"difference-incompatible schemas {left.schema} and {right.schema}"
            )
        # Align the right side's column names positionally to the left's.
        aligned = ", ".join(
            f"{quote_identifier(old)} AS {quote_identifier(new)}"
            for old, new in zip(right.schema, left.schema)
        )
        side = quote_identifier(self._fresh("side"))
        rank = quote_identifier(self._fresh("rn"))
        right_count = quote_identifier(self._fresh("rcnt"))
        columns = self._columns(left.schema)
        tagged = self._cte(
            "tagged",
            f"SELECT {columns}, 0 AS {side} FROM {left.name}\n"
            f"UNION ALL\n"
            f"SELECT {aligned}, 1 FROM {right.name}",
        )
        ranked = self._cte(
            "ranked",
            f"SELECT {columns}, {side},\n"
            f"  ROW_NUMBER() OVER (PARTITION BY {columns}, {side}) AS {rank},\n"
            f"  SUM({side}) OVER (PARTITION BY {columns}) AS {right_count}\n"
            f"FROM {tagged}",
        )
        body = (
            f"SELECT {columns} FROM {ranked}\n"
            f"WHERE {side} = 0 AND {rank} > {right_count}"
        )
        return _Rel(self._cte("diff", body), left.schema)

    def _aggregation(self, plan: Aggregation) -> _Rel:
        child = self._compile(plan.child)
        unknown = set(plan.group_by) - set(child.schema)
        if unknown:
            raise BackendError(f"unknown group-by attributes {sorted(unknown)}")
        cells = [quote_identifier(a) for a in plan.group_by]
        cells += [
            f"{self._aggregate_sql(spec)} AS {quote_identifier(spec.alias)}"
            for spec in plan.aggregates
        ]
        body = f"SELECT {', '.join(cells)} FROM {child.name}"
        if plan.group_by:
            body += f"\nGROUP BY {self._columns(tuple(plan.group_by))}"
        return _Rel(self._cte("agg", body), plan.output_names)

    @staticmethod
    def _aggregate_sql(spec: AggregateSpec) -> str:
        if spec.argument is None:  # validated by AggregateSpec: count only
            return "COUNT(*)"
        return f"{spec.func.upper()}({sql_expression(spec.argument)})"

    def _distinct(self, plan: Distinct) -> _Rel:
        child = self._compile(plan.child)
        body = f"SELECT DISTINCT {self._columns(child.schema)} FROM {child.name}"
        return _Rel(self._cte("dis", body), child.schema)

    # -- temporal physical operators (Section 9 window SQL) -----------------------------------

    def _period_columns(
        self, plan: Operator, schema: Tuple[str, ...], period: Tuple[str, str]
    ) -> Tuple[str, str]:
        begin, end = period
        for attribute in period:
            if attribute not in schema:
                raise BackendError(
                    f"period attribute {attribute!r} missing from {schema} "
                    f"(while compiling {type(plan).__name__})"
                )
        return begin, end

    def _coalesce(self, plan: CoalesceOperator) -> _Rel:
        """Multiset coalescing as the paper's window-function subquery.

        +1/-1 events per (value group, end point) are net-summed per point;
        a running ``SUM ... OVER (PARTITION BY group ORDER BY point)`` gives
        the number of open intervals after each changepoint, ``LEAD`` the
        next changepoint, and a recursive counter joined on
        ``n <= open_count`` restores the output multiplicities.
        """
        child = self._compile(plan.child)
        begin, end = self._period_columns(plan, child.schema, plan.period)
        data = tuple(a for a in child.schema if a not in plan.period)
        qb, qe = quote_identifier(begin), quote_identifier(end)

        ts = quote_identifier(self._fresh("ts"))
        sign = quote_identifier(self._fresh("sign"))
        delta = quote_identifier(self._fresh("delta"))
        open_count = quote_identifier(self._fresh("open"))
        next_ts = quote_identifier(self._fresh("next"))

        data_list = self._columns(data)
        data_prefix = f"{data_list}, " if data else ""
        partition = f"PARTITION BY {data_list} " if data else ""

        src = self._cte(
            "src",
            f"SELECT {data_prefix}{qb}, {qe} FROM {child.name} WHERE {qb} < {qe}",
        )
        points = self._cte(
            "pts",
            f"SELECT {data_prefix}{ts}, SUM({sign}) AS {delta} FROM (\n"
            f"SELECT {data_prefix}{qb} AS {ts}, 1 AS {sign} FROM {src}\n"
            f"UNION ALL\n"
            f"SELECT {data_prefix}{qe}, -1 FROM {src}\n"
            f")\n"
            f"GROUP BY {data_prefix}{ts} HAVING SUM({sign}) <> 0",
        )
        sweep = self._cte(
            "sweep",
            f"SELECT {data_prefix}{ts},\n"
            f"  SUM({delta}) OVER ({partition}ORDER BY {ts}) AS {open_count},\n"
            f"  LEAD({ts}) OVER ({partition}ORDER BY {ts}) AS {next_ts}\n"
            f"FROM {points}",
        )
        counter, n = self._recursive_counter(
            f"SELECT COALESCE(MAX({open_count}), 0) FROM {sweep}"
        )
        body = (
            f"SELECT {data_prefix}{ts} AS {qb}, {next_ts} AS {qe}\n"
            f"FROM {sweep} JOIN {counter} ON {n} <= {open_count}\n"
            f"WHERE {open_count} > 0"
        )
        return _Rel(self._cte("coal", body), data + plan.period)

    def _split(self, plan: SplitOperator) -> _Rel:
        """``N_G(R1, R2)``: split left rows at all group end points.

        Left rows get a synthetic row id; the group's end points (from both
        inputs, the set union as in Definition 8.3) that fall strictly
        inside a row's interval become its cut points, and ``LEAD`` over the
        per-row sorted boundary list yields the output segments.
        """
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        begin, end = self._period_columns(plan, left.schema, plan.period)
        self._period_columns(plan, right.schema, plan.period)
        for attribute in plan.group_by:
            for side in (left, right):
                if attribute not in side.schema:
                    raise BackendError(
                        f"split group attribute {attribute!r} missing from {side.schema}"
                    )
        qb, qe = quote_identifier(begin), quote_identifier(end)

        rid = quote_identifier(self._fresh("rid"))
        point = quote_identifier(self._fresh("pt"))
        seg_begin = quote_identifier(self._fresh("b"))
        seg_end = quote_identifier(self._fresh("e"))
        group_aliases = [quote_identifier(self._fresh("g")) for _ in plan.group_by]

        rows = self._cte(
            "rows",
            f"SELECT {self._columns(left.schema)}, ROW_NUMBER() OVER () AS {rid} "
            f"FROM {left.name} WHERE {qb} < {qe}",
        )

        def endpoint_select(source: str, attribute: str) -> str:
            cells = [
                f"{quote_identifier(g)} AS {alias}"
                for g, alias in zip(plan.group_by, group_aliases)
            ]
            cells.append(f"{quote_identifier(attribute)} AS {point}")
            return f"SELECT {', '.join(cells)} FROM {source}"

        points = self._cte(
            "pts",
            "\nUNION\n".join(
                endpoint_select(source, attribute)
                for source in (left.name, right.name)
                for attribute in (begin, end)
            ),
        )
        group_match = " AND ".join(
            self._null_safe_equal(
                f"{rows}.{quote_identifier(g)}", f"{points}.{alias}"
            )
            for g, alias in zip(plan.group_by, group_aliases)
        )
        cut_condition = (
            f"{points}.{point} > {rows}.{qb} AND {points}.{point} < {rows}.{qe}"
        )
        if group_match:
            cut_condition = f"{group_match} AND {cut_condition}"
        bounds = self._cte(
            "bounds",
            f"SELECT {rid}, {qb} AS {point} FROM {rows}\n"
            f"UNION\n"
            f"SELECT {rid}, {qe} FROM {rows}\n"
            f"UNION\n"
            f"SELECT {rows}.{rid}, {points}.{point} FROM {rows} JOIN {points} "
            f"ON {cut_condition}",
        )
        segments = self._cte(
            "segs",
            f"SELECT {rid}, {point} AS {seg_begin},\n"
            f"  LEAD({point}) OVER (PARTITION BY {rid} ORDER BY {point}) AS {seg_end}\n"
            f"FROM {bounds}",
        )

        # Output columns keep the left schema order, with the period
        # attributes replaced in place by the segment bounds.
        output_cells = []
        for attribute in left.schema:
            if attribute == begin:
                output_cells.append(f"{segments}.{seg_begin} AS {qb}")
            elif attribute == end:
                output_cells.append(f"{segments}.{seg_end} AS {qe}")
            else:
                output_cells.append(f"{rows}.{quote_identifier(attribute)}")
        body = (
            f"SELECT {', '.join(output_cells)}\n"
            f"FROM {rows} JOIN {segments} ON {rows}.{rid} = {segments}.{rid}\n"
            f"WHERE {segments}.{seg_end} IS NOT NULL"
        )
        return _Rel(self._cte("split", body), left.schema)

    def _temporal_aggregate(self, plan: TemporalAggregateOperator) -> _Rel:
        """Fused split + aggregation (Section 9) as segmentation + GROUP BY.

        Each group's interval end points induce its segments (consecutive
        points via ``LEAD``); a row is open on a whole segment iff its
        interval covers it, so joining segments to rows on containment and
        grouping by (group, segment) evaluates every aggregate per maximal
        constant interval -- exactly the engine's sweep.
        """
        child = self._compile(plan.child)
        begin, end = self._period_columns(plan, child.schema, plan.period)
        for attribute in plan.group_by:
            if attribute not in child.schema:
                raise BackendError(
                    f"aggregate group attribute {attribute!r} missing from {child.schema}"
                )
        qb, qe = quote_identifier(begin), quote_identifier(end)

        point = quote_identifier(self._fresh("pt"))
        seg_begin = quote_identifier(self._fresh("b"))
        seg_end = quote_identifier(self._fresh("e"))
        group_aliases = [quote_identifier(self._fresh("g")) for _ in plan.group_by]

        src = self._cte(
            "src",
            f"SELECT {self._columns(child.schema)} FROM {child.name} "
            f"WHERE {qb} < {qe}",
        )

        def endpoint_select(attribute: str) -> str:
            cells = [
                f"{quote_identifier(g)} AS {alias}"
                for g, alias in zip(plan.group_by, group_aliases)
            ]
            cells.append(f"{quote_identifier(attribute)} AS {point}")
            return f"SELECT {', '.join(cells)} FROM {src}"

        points = self._cte(
            "pts", f"{endpoint_select(begin)}\nUNION\n{endpoint_select(end)}"
        )
        seg_partition = (
            "PARTITION BY " + ", ".join(group_aliases) + " " if group_aliases else ""
        )
        alias_list = "".join(f"{alias}, " for alias in group_aliases)
        segments = self._cte(
            "segs",
            f"SELECT {alias_list}{point} AS {seg_begin},\n"
            f"  LEAD({point}) OVER ({seg_partition}ORDER BY {point}) AS {seg_end}\n"
            f"FROM {points}",
        )

        group_match = " AND ".join(
            self._null_safe_equal(
                f"{segments}.{alias}", f"{src}.{quote_identifier(g)}"
            )
            for g, alias in zip(plan.group_by, group_aliases)
        )
        containment = (
            f"{src}.{qb} <= {segments}.{seg_begin} AND "
            f"{src}.{qe} >= {segments}.{seg_end}"
        )
        join_condition = f"{group_match} AND {containment}" if group_match else containment

        output_cells = [
            f"{segments}.{alias} AS {quote_identifier(g)}"
            for g, alias in zip(plan.group_by, group_aliases)
        ]
        output_cells += [
            f"{self._aggregate_sql(spec)} AS {quote_identifier(spec.alias)}"
            for spec in plan.aggregates
        ]
        output_cells.append(f"{segments}.{seg_begin} AS {qb}")
        output_cells.append(f"{segments}.{seg_end} AS {qe}")
        group_by_cells = [f"{segments}.{alias}" for alias in group_aliases]
        group_by_cells += [f"{segments}.{seg_begin}", f"{segments}.{seg_end}"]

        body = (
            f"SELECT {', '.join(output_cells)}\n"
            f"FROM {segments} JOIN {src} ON {join_condition}\n"
            f"WHERE {segments}.{seg_end} IS NOT NULL\n"
            f"GROUP BY {', '.join(group_by_cells)}"
        )
        schema = (
            tuple(plan.group_by)
            + tuple(spec.alias for spec in plan.aggregates)
            + plan.period
        )
        return _Rel(self._cte("tagg", body), schema)
