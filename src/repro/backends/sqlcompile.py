"""Compiling logical plans (REWR output included) to a single SQL statement.

This is the code generator the paper's middleware ships to the host DBMS:
every operator of ``RA^agg`` maps to plain SQL with bag semantics, and the
three physical temporal operators of the rewriting -- coalesce, split and
the fused temporal aggregation of Section 9 -- are lowered to the paper's
window-function formulations (running sums over +1/-1 interval events,
``LEAD`` to the next changepoint, per-group segmentation).

Design notes -- the statement is shaped so that the host's planner can do
its job; a rewriting middleware is only as fast as the host is allowed to be:

* **one CTE per pipeline breaker.**  A sub-plan compiles to an open block,
  ``SELECT columns FROM source WHERE filters`` over a single table or CTE,
  and ``Rename`` / ``Projection`` / ``Selection`` only edit that block (the
  column expressions and filter conjuncts are kept as expression trees over
  the source's columns and printed when the block is consumed).  A block is
  closed -- printed into a CTE body -- by the operator that consumes it:
  a join, a set operation, an aggregation, ``DISTINCT`` or one of the
  window sweeps.  The chain stays **flat** (a ``WITH`` list, each entry
  naming its inputs; rewritten TPC-BiH plans nest 30+ operators deep, which
  overflows SQLite's fixed parser stack when expressed as subqueries) and
  is still one statement.  A projection that would copy a computed column
  into further expressions closes the block first, so text size stays
  linear in plan size;
* **sub-plans are memoised by object**: the compiler first interns its
  input (the planner's last pass), so equal sub-plans are one object whether
  or not the planner ran, and a CTE body that was already emitted is reused
  by name.  A sub-plan a query names twice (``agg-join`` joins ``dept_emp``
  with ``salaries`` on both sides of its last join) is computed once by the
  host;
* **filter vs value context.**  ``WHERE`` clauses are printed with
  :func:`~repro.algebra.sql.sql_predicate`: comparisons reached through
  ``AND``/``OR`` only are bare ``a op b`` (``UNKNOWN`` and 0 both drop the
  row there), so equi-join keys and interval-overlap bounds are visible to
  the host's planner.  Select lists, aggregate arguments and anything under
  ``NOT`` keep the two-valued ``CASE`` guard of
  :func:`~repro.algebra.sql.sql_expression`;
* **join order is pinned.**  Inputs whose columns are plain column
  references are inlined into the join's ``FROM`` (their filters join the
  ``WHERE``), and the block is written ``outer CROSS JOIN inner`` with the
  input that has more base rows beneath it outside: a table counts its
  rows in the snapshot the compile reads, a constant relation its literal
  rows, any other operator the sum of its inputs; a tie keeps the left
  input outside.  The rule keeps no state, so it cannot go stale.  SQLite
  never reorders a ``CROSS JOIN``; without statistics of its own it
  otherwise guesses, and on a wrong guess (or on CTE inputs) runs the join
  as two nested full scans.  With the order fixed it builds its automatic
  covering index on the smaller input's equality key and probes it once
  per outer row;
* bag semantics are preserved throughout: union is ``UNION ALL`` and bag
  difference (``EXCEPT ALL`` with multiplicities, which SQLite lacks) is
  expressed with window counts -- rows of both sides are tagged and
  numbered per value group, and a left row survives while its per-group row
  number exceeds the right side's count;
* coalescing and the temporal aggregation of ``count``/``sum``/``avg`` share
  one sweep: +/- events per interval end point, net per point, running
  ``SUM ... OVER`` and ``LEAD`` to the next point.  ``min``/``max`` are not
  invertible, so they keep the join of segments with the rows covering them;
* multiplicities in the coalesce output (a changepoint with ``n`` open
  intervals emits ``n`` duplicate rows) come from a ``WITH RECURSIVE``
  counter joined on ``n <= open_count``;
* value-group equality uses SQLite's NULL-safe ``IS`` comparison so NULL
  padding rows group exactly like the engine's Python ``None`` keys.

The emitted dialect is SQLite's (3.25 for window functions is the newest
feature used); the printer underneath (:mod:`repro.algebra.sql`) and the
operator shapes here stick to widely shared SQL, so a PostgreSQL/DuckDB
backend mostly needs to swap ``IS`` for ``IS NOT DISTINCT FROM`` and the
counter CTE for ``generate_series``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..algebra.expressions import Attribute, Comparison, Expression
from ..algebra.operators import (
    Aggregation,
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
from ..algebra.sql import (
    ColumnPrinter,
    quote_identifier,
    sql_expression,
    sql_literal,
    sql_predicate,
)
from ..engine.catalog import Database
from ..engine.table import TableVersion
from ..errors import BackendError
from ..planner.rules import _intern, substitute
from ..rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)

__all__ = ["CompiledQuery", "SQLCompiler", "compile_plan"]

#: Aliases of the two inputs inside a join block.
_LEFT, _RIGHT = "__l", "__r"

#: Helper columns the lowerings below add inside their CTEs (``__g0``..,
#: ``__a0``.. per group attribute / aggregate); no plan attribute may use one.
_RESERVED = re.compile(r"__(ts|sign|open|next|n|side|rn|rcnt|rid|pt|b|e|[gans]\d+)")

#: Aggregates the +/- event sweep can maintain (invertible under deletion).
_SWEEPABLE = ("count", "sum", "avg")


@dataclass(frozen=True)
class CompiledQuery:
    """A complete SELECT statement plus its positional output schema."""

    sql: str
    schema: Tuple[str, ...]


class _Block:
    """An open ``SELECT columns FROM source WHERE filters`` (see Design notes)."""

    __slots__ = ("source", "columns", "filters", "schema", "_edited")

    def __init__(
        self,
        source: str,
        columns: Tuple[Tuple[str, Expression], ...],
        filters: Tuple[Expression, ...] = (),
    ) -> None:
        self.source = source  # quoted table or CTE name
        self.columns = columns  # (output name, expression over the source's columns)
        self.filters = filters  # conjuncts over the source's columns
        self.schema = tuple(name for name, _ in columns)
        # The columns that are not simply the source column of their name.
        self._edited = {
            name: expression
            for name, expression in columns
            if not (isinstance(expression, Attribute) and expression.name == name)
        }

    @classmethod
    def over(cls, source: str, schema: Sequence[str]) -> "_Block":
        return cls(source, tuple((name, Attribute(name)) for name in schema))

    @property
    def passes_through(self) -> bool:
        """Every output column is the source column of the same name."""
        return not self._edited

    @property
    def plain(self) -> bool:
        """Every output column is a bare source column (possibly renamed)."""
        return all(isinstance(e, Attribute) for e in self._edited.values())

    def inline(self, expression: Expression) -> Expression:
        """An expression over the output names, rewritten over the source's columns."""
        return substitute(expression, self._edited) if self._edited else expression


def _qualified(alias: str) -> ColumnPrinter:
    return lambda name: f"{alias}.{quote_identifier(name)}"


def compile_plan(plan: Operator, database: Database) -> CompiledQuery:
    """Compile a logical plan against a catalog into one SQL statement."""
    return SQLCompiler(database).compile(plan)


class SQLCompiler:
    """One-shot compiler; accumulates CTEs while walking the plan."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._ctes: List[Tuple[str, str]] = []  # (header, body)
        self._emitted: Dict[str, str] = {}  # CTE body -> quoted name
        self._memo: Dict[int, _Block] = {}  # id(sub-plan) -> its block
        self._versions: Mapping[str, TableVersion] = database.snapshot()
        self._base_rows: Dict[int, int] = {}  # id(sub-plan) -> rows beneath it

    # -- plumbing --------------------------------------------------------------------------

    def _cte(self, stem: str, body: str) -> str:
        """The quoted name of a CTE with this body (appended unless emitted before)."""
        name = self._emitted.get(body)
        if name is None:
            name = quote_identifier(f"__{stem}_{len(self._ctes) + 1}")
            self._ctes.append((name, body))
            self._emitted[body] = name
        return name

    def _recursive_counter(self, bound_sql: str) -> str:
        """A counter CTE with one column ``__n`` = ``1..bound``; its quoted name."""
        name = quote_identifier(f"__mult_{len(self._ctes) + 1}")
        body = f"SELECT 1 UNION ALL SELECT __n + 1 FROM {name} WHERE __n < ({bound_sql})"
        self._ctes.append((f"{name}(__n)", body))
        return name

    @staticmethod
    def _columns(names: Sequence[str]) -> str:
        return ", ".join(quote_identifier(n) for n in names)

    @staticmethod
    def _cell(expression: Expression, name: str) -> str:
        text = sql_expression(expression)
        quoted = quote_identifier(name)
        return text if text == quoted else f"{text} AS {quoted}"

    @staticmethod
    def _null_safe_equal(left: str, right: str) -> str:
        # SQLite's IS is NULL-safe equality (SQL standard: IS NOT DISTINCT FROM).
        return f"{left} IS {right}"

    def _check_schema(self, plan: Operator, schema: Tuple[str, ...]) -> None:
        if not schema:
            raise BackendError(f"cannot compile zero-column relation {plan!r} to SQL")
        clash = [name for name in schema if _RESERVED.fullmatch(name)]
        if clash:
            raise BackendError(
                f"attributes {clash} of {plan!r} collide with the compiler's helper columns"
            )

    # -- blocks ----------------------------------------------------------------------------

    def _filter(self, block: _Block, predicate: Expression) -> _Block:
        """``block`` with one more conjunct (given over its output names)."""
        return _Block(block.source, block.columns, block.filters + (block.inline(predicate),))

    def _project(
        self, block: _Block, columns: Sequence[Tuple[Expression, str]]
    ) -> _Block:
        """``block`` with its select list replaced (expressions over its output names)."""
        computed = {
            name
            for name, expression in block._edited.items()
            if not isinstance(expression, Attribute) and expression.attributes()
        }
        if computed and any(
            not isinstance(expression, Attribute)
            and computed.intersection(expression.attributes())
            for expression, _ in columns
        ):
            # Substituting would copy a computed column's text into every
            # reference; close the block so the copies are references.
            block = self._closed(block)
        projected = tuple((name, block.inline(expression)) for expression, name in columns)
        return _Block(block.source, projected, block.filters)

    def _select(self, block: _Block, extra: Sequence[str] = (), head: str = "SELECT") -> str:
        """The block as SQL text; ``extra`` cells are appended to the select list."""
        cells = [self._cell(expression, name) for name, expression in block.columns]
        return (
            f"{head} {', '.join(cells + list(extra))} FROM {block.source}"
            + self._where(sql_predicate(f) for f in block.filters)
        )

    @staticmethod
    def _where(conjuncts: Iterable[str]) -> str:
        conjuncts = list(conjuncts)
        return "\nWHERE " + " AND ".join(conjuncts) if conjuncts else ""

    def _name(self, block: _Block, stem: str = "sel") -> str:
        """A FROM-able name whose columns are the block's schema (a CTE if need be)."""
        if block.passes_through and not block.filters:
            return block.source
        return self._cte(stem, self._select(block))

    def _closed(self, block: _Block) -> _Block:
        """A fresh block over the result of ``block``."""
        return _Block.over(self._name(block), block.schema)

    # -- entry point -------------------------------------------------------------------------

    def compile(self, plan: Operator) -> CompiledQuery:
        # Interned, equal sub-plans are one object, and the root holds every
        # node while the walk runs: the memos can key on id().
        block = self._compile(_intern(plan))
        body = self._select(block)
        if self._ctes:
            chain = ",\n".join(
                f"{header} AS (\n{cte_body}\n)" for header, cte_body in self._ctes
            )
            # RECURSIVE is harmless for ordinary CTEs and required whenever a
            # coalesce emitted its multiplicity counter.
            sql = f"WITH RECURSIVE {chain}\n{body}"
        else:
            sql = body
        return CompiledQuery(sql, block.schema)

    # -- dispatch ----------------------------------------------------------------------------

    def _compile(self, plan: Operator) -> _Block:
        # A sub-plan that occurs twice -- shared (split(R, R)) or equal and
        # interned -- is one object, so it compiles once.
        block = self._memo.get(id(plan))
        if block is None:
            block = self._compile_fresh(plan)
            self._check_schema(plan, block.schema)
            self._memo[id(plan)] = block
        return block

    def _compile_fresh(self, plan: Operator) -> _Block:
        if isinstance(plan, RelationAccess):
            return self._relation(plan)
        if isinstance(plan, ConstantRelation):
            return self._constant(plan)
        if isinstance(plan, Selection):
            return self._filter(self._compile(plan.child), plan.predicate)
        if isinstance(plan, Projection):
            return self._project(self._compile(plan.child), plan.columns)
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

    def _relation(self, plan: RelationAccess) -> _Block:
        if plan.name not in self.database:
            raise BackendError(f"unknown table {plan.name!r}")
        schema = self.database.table(plan.name).schema
        return _Block.over(quote_identifier(plan.name), schema)

    def _constant(self, plan: ConstantRelation) -> _Block:
        schema = tuple(plan.schema)
        self._check_schema(plan, schema)
        if not plan.rows:
            nulls = ", ".join(f"NULL AS {quote_identifier(n)}" for n in schema)
            return _Block.over(self._cte("const", f"SELECT {nulls} WHERE 0"), schema)
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
        return _Block.over(self._cte("const", "\nUNION ALL\n".join(selects)), schema)

    # -- classical operators ------------------------------------------------------------------

    def _rename(self, plan: Rename) -> _Block:
        child = self._compile(plan.child)
        renames = dict(plan.renames)
        missing = set(renames) - set(child.schema)
        if missing:
            raise BackendError(f"cannot rename unknown attributes {sorted(missing)}")
        columns = tuple(
            (renames.get(name, name), expression) for name, expression in child.columns
        )
        return _Block(child.source, columns, child.filters)

    def _rows(self, plan: Operator) -> int:
        """Base rows beneath a sub-plan of the plan being compiled (see Design notes)."""
        rows = self._base_rows.get(id(plan))
        if rows is None:
            if isinstance(plan, RelationAccess):
                rows = self._versions[plan.name].count
            elif isinstance(plan, ConstantRelation):
                rows = len(plan.rows)
            else:
                rows = sum(self._rows(child) for child in plan.children())
            self._base_rows[id(plan)] = rows
        return rows

    def _join(self, plan: Join) -> _Block:
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        overlap = set(left.schema) & set(right.schema)
        if overlap:
            raise BackendError(
                f"join inputs share attributes {sorted(overlap)}; rename first"
            )
        # Pinned order (SQLite never reorders CROSS JOIN): the larger input
        # outside, the smaller inside with bare columns for the index key.
        sides = [(left, _LEFT), (right, _RIGHT)]
        if self._rows(plan.right) > self._rows(plan.left):
            sides.reverse()
        (outer, outer_alias), (inner, inner_alias) = sides
        if not inner.plain:
            inner = self._closed(inner)
        # Both inputs are inlined under fixed aliases (the same relation may
        # sit on both sides); output names are disjoint, so each resolves to
        # one expression over qualified source columns.
        qualified: Dict[str, str] = {}
        conjuncts: List[str] = []
        for block, alias in ((outer, outer_alias), (inner, inner_alias)):
            column = _qualified(alias)
            for name, expression in block.columns:
                qualified[name] = sql_expression(expression, column)
            conjuncts += [sql_predicate(f, column) for f in block.filters]
        if plan.predicate is not None:
            conjuncts.append(
                sql_predicate(
                    plan.predicate,
                    lambda name: qualified.get(name) or quote_identifier(name),
                )
            )
        schema = left.schema + right.schema
        cells = ", ".join(
            f"{qualified[name]} AS {quote_identifier(name)}" for name in schema
        )
        body = (
            f"SELECT {cells}\n"
            f"FROM {outer.source} AS {outer_alias} CROSS JOIN {inner.source} AS {inner_alias}"
            + self._where(conjuncts)
        )
        return _Block.over(self._cte("join", body), schema)

    def _union(self, plan: Union) -> _Block:
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        if len(left.schema) != len(right.schema):
            raise BackendError(
                f"union-incompatible schemas {left.schema} and {right.schema}"
            )
        body = f"{self._select(left)}\nUNION ALL\n{self._select(right)}"
        return _Block.over(self._cte("un", body), left.schema)

    def _difference(self, plan: Difference) -> _Block:
        """``EXCEPT ALL`` via window counts (no multiset EXCEPT in SQLite).

        Both sides are tagged and unioned (positionally: the right side's
        names do not matter); per value group, rows are numbered per side
        and the right side's cardinality is a windowed sum of the tags.  A
        left row survives iff its number exceeds that count -- i.e.
        ``max(0, m - n)`` copies per group, the annotation monus.
        """
        left = self._compile(plan.left)
        right = self._compile(plan.right)
        if len(left.schema) != len(right.schema):
            raise BackendError(
                f"difference-incompatible schemas {left.schema} and {right.schema}"
            )
        side, rank, right_count = "__side", "__rn", "__rcnt"
        columns = self._columns(left.schema)
        tagged = self._cte(
            "tagged",
            f"{self._select(left, [f'0 AS {side}'])}\n"
            f"UNION ALL\n"
            f"{self._select(right, ['1'])}",
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
        return _Block.over(self._cte("diff", body), left.schema)

    def _aggregation(self, plan: Aggregation) -> _Block:
        child = self._compile(plan.child)
        unknown = set(plan.group_by) - set(child.schema)
        if unknown:
            raise BackendError(f"unknown group-by attributes {sorted(unknown)}")
        groups = [child.inline(Attribute(name)) for name in plan.group_by]
        if not all(isinstance(group, Attribute) for group in groups):
            # GROUP BY takes column references only (``GROUP BY 1`` would
            # mean the first result column, not the constant).
            child = self._closed(child)
            groups = [Attribute(name) for name in plan.group_by]
        cells = [self._cell(group, name) for group, name in zip(groups, plan.group_by)]
        for spec in plan.aggregates:
            argument = None if spec.argument is None else child.inline(spec.argument)
            cells.append(
                f"{self._aggregate_sql(spec.func, argument)} AS {quote_identifier(spec.alias)}"
            )
        body = f"SELECT {', '.join(cells)} FROM {child.source}" + self._where(
            sql_predicate(f) for f in child.filters
        )
        if groups:
            body += f"\nGROUP BY {', '.join(map(sql_expression, groups))}"
        return _Block.over(self._cte("agg", body), plan.output_names)

    @staticmethod
    def _aggregate_sql(func: str, argument: Optional[Expression]) -> str:
        if argument is None:  # validated by AggregateSpec: count only
            return "COUNT(*)"
        return f"{func.upper()}({sql_expression(argument)})"

    def _distinct(self, plan: Distinct) -> _Block:
        child = self._compile(plan.child)
        body = self._select(child, head="SELECT DISTINCT")
        return _Block.over(self._cte("dis", body), child.schema)

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

    def _proper(self, block: _Block, period: Tuple[str, str]) -> _Block:
        """The block restricted to non-degenerate intervals (``begin < end``)."""
        begin, end = period
        return self._filter(block, Comparison("<", Attribute(begin), Attribute(end)))

    def _sweep(
        self,
        src: str,
        keys: Tuple[str, ...],
        period: Tuple[str, str],
        deltas: Sequence[Tuple[str, str]],
        carried: Sequence[str] = (),
        changepoints_only: bool = False,
    ) -> str:
        """The +/- event sweep shared by coalescing and temporal aggregation.

        Every row of ``src`` contributes an event at its begin (``__sign``
        = 1) and at its end (-1).  ``deltas`` -- ``(quoted name, expression
        over __sign and the carried columns)`` -- are net-summed per (key,
        point) and then accumulated along each key's points, so in the
        returned CTE column ``name`` holds the running total *after* point
        ``__ts`` and ``__next`` the key's following point (NULL at the last).
        ``changepoints_only`` drops the points whose events cancel out.
        """
        begin, end = (quote_identifier(a) for a in period)
        key_list = "".join(quote_identifier(k) + ", " for k in keys)
        carried_list = "".join(", " + c for c in carried)
        partition = f"PARTITION BY {self._columns(keys)} " if keys else ""
        window = f"OVER ({partition}ORDER BY __ts)"
        net = ", ".join(f"SUM({expression}) AS {name}" for name, expression in deltas)
        points = self._cte(
            "pts",
            f"SELECT {key_list}__ts, {net} FROM (\n"
            f"SELECT {key_list}{begin} AS __ts, 1 AS __sign{carried_list} FROM {src}\n"
            f"UNION ALL\n"
            f"SELECT {key_list}{end}, -1{carried_list} FROM {src}\n"
            f")\n"
            f"GROUP BY {key_list}__ts"
            + (" HAVING SUM(__sign) <> 0" if changepoints_only else ""),
        )
        running = ",\n".join(f"  SUM({name}) {window} AS {name}" for name, _ in deltas)
        return self._cte(
            "sweep",
            f"SELECT {key_list}__ts,\n{running},\n  LEAD(__ts) {window} AS __next\n"
            f"FROM {points}",
        )

    def _coalesce(self, plan: CoalesceOperator) -> _Block:
        """Multiset coalescing as the paper's window-function subquery.

        The sweep's running ``__open`` is the number of open intervals after
        each changepoint (points whose events cancel are not changepoints
        and are dropped); a recursive counter joined on ``n <= __open``
        restores the output multiplicities.
        """
        child = self._compile(plan.child)
        begin, end = self._period_columns(plan, child.schema, plan.period)
        data = tuple(a for a in child.schema if a not in plan.period)
        src = self._name(self._proper(child, plan.period), "src")
        sweep = self._sweep(
            src, data, plan.period, [("__open", "__sign")], changepoints_only=True
        )
        counter = self._recursive_counter(f"SELECT COALESCE(MAX(__open), 0) FROM {sweep}")
        data_prefix = "".join(quote_identifier(a) + ", " for a in data)
        body = (
            f"SELECT {data_prefix}__ts AS {quote_identifier(begin)}, "
            f"__next AS {quote_identifier(end)}\n"
            f"FROM {sweep} JOIN {counter} ON __n <= __open\n"
            f"WHERE __open > 0"
        )
        return _Block.over(self._cte("coal", body), data + plan.period)

    def _split(self, plan: SplitOperator) -> _Block:
        """``N_G(R1, R2)``: split left rows at all group end points.

        Left rows get a synthetic row id; the group's end points (from both
        inputs, the set union as in Definition 8.3) that fall strictly
        inside a row's interval become its cut points, and ``LEAD`` over the
        per-row sorted boundary list yields the output segments.
        """
        left_block = self._compile(plan.left)
        right_block = self._compile(plan.right)
        schema = left_block.schema
        begin, end = self._period_columns(plan, schema, plan.period)
        self._period_columns(plan, right_block.schema, plan.period)
        for attribute in plan.group_by:
            for side in (schema, right_block.schema):
                if attribute not in side:
                    raise BackendError(
                        f"split group attribute {attribute!r} missing from {side}"
                    )
        qb, qe = quote_identifier(begin), quote_identifier(end)
        left = self._name(left_block, "in")
        right = self._name(right_block, "in")

        rid, point, seg_begin, seg_end = "__rid", "__pt", "__b", "__e"
        group_aliases = [f"__g{position}" for position in range(len(plan.group_by))]

        rows = self._cte(
            "rows",
            f"SELECT {self._columns(schema)}, ROW_NUMBER() OVER () AS {rid} "
            f"FROM {left} WHERE {qb} < {qe}",
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
                for source in dict.fromkeys((left, right))
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
        for attribute in schema:
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
        return _Block.over(self._cte("split", body), schema)

    def _temporal_aggregate(self, plan: TemporalAggregateOperator) -> _Block:
        """Fused split + aggregation (Section 9): one row per group and segment.

        A group's interval end points cut the time line into segments; every
        aggregate is evaluated over the rows open on a segment, and segments
        with no open row produce nothing -- exactly the engine's sweep.
        """
        child = self._compile(plan.child)
        self._period_columns(plan, child.schema, plan.period)
        for attribute in plan.group_by:
            if attribute not in child.schema:
                raise BackendError(
                    f"aggregate group attribute {attribute!r} missing from {child.schema}"
                )
        if all(spec.func in _SWEEPABLE for spec in plan.aggregates):
            body = self._swept_aggregate(plan, child)
        else:
            body = self._segment_join_aggregate(plan, child)
        schema = (
            tuple(plan.group_by)
            + tuple(spec.alias for spec in plan.aggregates)
            + plan.period
        )
        return _Block.over(self._cte("tagg", body), schema)

    def _swept_aggregate(self, plan: TemporalAggregateOperator, child: _Block) -> str:
        """``count``/``sum``/``avg`` from running totals (the engine's own method).

        Per aggregate the sweep carries the number of open non-NULL
        arguments and, for ``sum``/``avg``, their total; rows enter at their
        begin and leave at their end.
        """
        keys = tuple(plan.group_by)
        begin, end = plan.period
        arguments = []  # (expression, helper column) per aggregate that has one
        deltas = [("__open", "__sign")]
        cells = []
        for position, spec in enumerate(plan.aggregates):
            if spec.argument is None:  # count(*): every open row
                cells.append("__open")
                continue
            argument, count, total = f"__a{position}", f"__n{position}", f"__s{position}"
            arguments.append((spec.argument, argument))
            deltas.append((count, f"__sign * ({argument} IS NOT NULL)"))
            if spec.func == "count":
                cells.append(count)
                continue
            deltas.append((total, f"__sign * {argument}"))
            if spec.func == "sum":
                cells.append(f"CASE WHEN {count} > 0 THEN {total} END")
            else:
                cells.append(f"CAST({total} AS REAL) / {count}")
        columns = [(Attribute(name), name) for name in keys + plan.period] + arguments
        src = self._name(self._proper(self._project(child, columns), plan.period), "src")
        sweep = self._sweep(src, keys, plan.period, deltas, [name for _, name in arguments])
        output = [quote_identifier(name) for name in keys]
        output += [
            f"{cell} AS {quote_identifier(spec.alias)}"
            for cell, spec in zip(cells, plan.aggregates)
        ]
        output += [
            f"__ts AS {quote_identifier(begin)}",
            f"__next AS {quote_identifier(end)}",
        ]
        return f"SELECT {', '.join(output)}\nFROM {sweep}\nWHERE __open > 0"

    def _segment_join_aggregate(
        self, plan: TemporalAggregateOperator, child: _Block
    ) -> str:
        """Any aggregate (``min``/``max`` included) by joining segments to rows.

        Consecutive end points of a group (``LEAD``) are its segments; a row
        is open on a whole segment iff its interval covers it, so joining
        segments to rows on containment and grouping by (group, segment)
        evaluates every aggregate per segment.
        """
        begin, end = plan.period
        qb, qe = quote_identifier(begin), quote_identifier(end)
        point, seg_begin, seg_end = "__pt", "__b", "__e"
        group_aliases = [f"__g{position}" for position in range(len(plan.group_by))]
        src = self._name(self._proper(child, plan.period), "src")

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
            f"{self._aggregate_sql(spec.func, spec.argument)} AS {quote_identifier(spec.alias)}"
            for spec in plan.aggregates
        ]
        output_cells.append(f"{segments}.{seg_begin} AS {qb}")
        output_cells.append(f"{segments}.{seg_end} AS {qe}")
        group_by_cells = [f"{segments}.{alias}" for alias in group_aliases]
        group_by_cells += [f"{segments}.{seg_begin}", f"{segments}.{seg_end}"]
        return (
            f"SELECT {', '.join(output_cells)}\n"
            f"FROM {segments} JOIN {src} ON {join_condition}\n"
            f"WHERE {segments}.{seg_end} IS NOT NULL\n"
            f"GROUP BY {', '.join(group_by_cells)}"
        )
