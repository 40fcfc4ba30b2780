"""Materialized temporal views maintained by re-running dirty partitions.

A :class:`MaterializedView` pins one rewritten snapshot plan (REWR +
planner output, exactly what the pipeline would execute).  Everything REWR
adds is defined *per group* -- coalescing per set of value-equivalent rows,
the split and the fused temporal aggregation per grouping -- so restricting
the view to some values of its **partition key** commutes with the whole
plan: the key is the set of output attributes a selection could sink on to
every leaf (:mod:`repro.incremental.partition` asks the planner).  The view
therefore keeps three things:

* per leaf of the plan, its own copy of the rows that leaf reads, as
  ``key -> {row: count}`` (what a *detached* delta stream is applied to;
  occurrences of one relation keyed by the same attributes share it);
* the result, as ``key -> [rows]``;
* nothing per operator.

A :class:`~repro.incremental.Delta` updates the input partitions it
touches, the pinned plan runs **once** through the engine over the rows of
those dirty partitions alone, and their output partitions are swapped.  A
plan that admits no key -- an ungrouped aggregate, a join with no equality
on a surviving attribute, an operator the planner cannot see through -- is
the same code with one partition: every delta re-executes it.

The contents are registered as a catalog table -- registration is DDL (it
bumps ``Database.schema_version`` and invalidates cached plans), while
:meth:`MaterializedView.apply` is DML and does not: it gives the table a new
row list inside the catalog's writer lock, published together with the
base-table write that caused it, so no query sees one without the other.
DDL after registration marks the view stale; the next delta triggers one
counted full refresh instead of an incorrect propagation.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..algebra.operators import (
    ConstantRelation,
    Difference,
    Operator,
    RelationAccess,
    Union,
)
from ..engine.batch import execute_batch_plan
from ..engine.executor import ExecutionContext, execute as engine_execute
from ..engine.table import Table, tuple_getter
from ..errors import IncrementalError
from ..rewriter.periodenc import T_BEGIN, T_END
from .delta import Delta, Row, ZSet, add_into
from .partition import partition_key as infer_partition_key

if TYPE_CHECKING:
    from ..rewriter.pipeline import QueryPipeline

__all__ = ["MaterializedView"]

#: Counter keys every view maintains (lifetime) and reports per apply.
COUNTER_KEYS = (
    "incremental.delta_rows",
    "incremental.resweep_groups",
    "incremental.full_refresh",
    "incremental.consolidated_rows",
)

Key = Tuple[Any, ...]


class _Leaf:
    """The rows a leaf of the pinned plan reads, partitioned by the view's key."""

    __slots__ = ("label", "schema", "attributes", "key_of", "partitions")

    def __init__(
        self,
        label: str,
        schema: Tuple[str, ...],
        attributes: Tuple[str, ...],
        rows: Iterable[Row],
    ) -> None:
        self.label = label
        self.schema = schema
        #: The leaf attributes holding the view's partition key, in key order.
        self.attributes = attributes
        self.key_of: Callable[[Row], Key] = tuple_getter(
            [schema.index(attribute) for attribute in attributes]
        )
        self.partitions: Dict[Key, ZSet] = {}
        key_of, partitions = self.key_of, self.partitions
        for row in rows:
            partition = partitions.setdefault(key_of(row), {})
            partition[row] = partition.get(row, 0) + 1

    def rows_of(self, keys: Iterable[Key]) -> Tuple[Row, ...]:
        """The rows (multiplicities expanded) of the given partitions."""
        partitions = self.partitions
        held = (partitions[key].items() for key in keys if key in partitions)
        return tuple(chain.from_iterable(starmap(repeat, chain.from_iterable(held))))


class MaterializedView:
    """A rewritten snapshot plan kept materialized under base-table deltas.

    Build through :meth:`repro.rewriter.pipeline.QueryPipeline.materialize`
    (or ``session.materialize(relation, name=...)``); the constructor runs
    one full evaluation, partitions inputs and result by the plan's
    partition key and registers the result as catalog table ``name`` (with
    period metadata when the output carries ``t_begin``/``t_end``), so other
    queries can reference it.
    """

    def __init__(
        self,
        name: str,
        query: Operator,
        pipeline: "QueryPipeline",
        final_coalesce: bool = False,
    ) -> None:
        self.name = name
        self.query = query
        self._pipeline = pipeline
        self._final_coalesce = final_coalesce
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self.refresh()

    # -- introspection ----------------------------------------------------------------

    @property
    def schema(self) -> Tuple[str, ...]:
        return self._table.schema

    @property
    def plan(self) -> Operator:
        """The rewritten/optimized physical plan this view maintains."""
        return self._plan

    @property
    def partition_key(self) -> Tuple[str, ...]:
        """The output attributes the view is partitioned by (``()``: one partition)."""
        return self._key

    @property
    def base_relations(self) -> frozenset:
        """Names of the catalog tables whose deltas this view consumes."""
        return frozenset(self._base_tables)

    def table(self) -> Table:
        """The backing catalog table (live view contents)."""
        return self._table

    def rows(self) -> List[Row]:
        """The view's rows as of the last published write (what a query of the table reads)."""
        published = self._pipeline.database.snapshot().get(self.name)
        return (published or self._table.version).rows()

    @property
    def stale(self) -> bool:
        """True when DDL on a base relation invalidated the pinned plan.

        Like a plan-cache entry, the view dies on DDL, not DML -- but the
        check is per *base table* (tracked by object identity: DDL replaces
        the catalog's :class:`Table` object, DML mutates it in place), so
        unrelated DDL -- another view registering its backing table, a
        foreign table being created -- does not force a refresh.
        """
        database = self._pipeline.database
        for name, table in self._base_tables.items():
            if name not in database or database.table(name) is not table:
                return True
        return False

    def __len__(self) -> int:
        return len(self._table.rows)

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, {len(self)} rows, "
            f"over {sorted(self.base_relations)})"
        )

    def explain(self) -> str:
        """The pinned physical plan, how it is maintained, the lifetime counters."""
        lines = [f"materialized view {self.name!r}:"]
        lines += ["  " + line for line in self.plan.explain_tree().splitlines()]
        if self._key:
            held = "; ".join(
                ", ".join(f"{leaf.label}.{attribute}" for attribute in leaf.attributes)
                for leaf in dict.fromkeys(self._leaves)
            )
            lines.append(f"partitioned by ({', '.join(self._key)}): {held}")
        else:
            lines.append("unpartitioned: every delta re-executes the plan")
        lines += ["", "incremental counters:"]
        lines += [
            f"  {key} = {value}" for key, value in sorted(self.counters.items())
        ]
        return "\n".join(lines)

    def verify(self) -> bool:
        """Bag-compare the rows readers get against full re-execution.

        One plan, one execution, one snapshot: the pinned plan minus the
        backing table and the backing table minus the pinned plan, both
        empty -- so a write landing meanwhile is seen by neither side.
        """
        stored = RelationAccess(self.name)
        apart = Union(Difference(self.plan, stored), Difference(stored, self.plan))
        return not self._pipeline.execute_rewritten(apart).rows

    # -- refresh ----------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild everything from the current catalog (counted).

        Runs on registration, and again whenever a delta arrives after DDL
        invalidated the pinned plan.  Registering the backing table is
        itself DDL (the schema version bumps, invalidating cached plans).
        Inside the catalog's writer lock, possibly in the middle of the DML
        call that found the view stale: the plan runs on the catalog's
        *working* versions, that call's own unpublished write included.
        """
        pipeline = self._pipeline
        database = pipeline.database
        with database.writing():
            self._plan = pipeline.rewrite(self.query, final_coalesce=self._final_coalesce)
            self._key, held = infer_partition_key(self._plan, database)
            self._leaves: List[_Leaf] = []
            self._readers: Dict[str, List[_Leaf]] = {}
            self._base_tables: Dict[str, Table] = {}
            # REWR reads a relation once per split input: occurrences keyed by
            # the same attributes share one copy.
            shared: Dict[Tuple[str, Tuple[str, ...]], _Leaf] = {}
            occurrences = [node for node in self._plan.walk() if not node.children()]
            for operator, attributes in zip(occurrences, held):
                if isinstance(operator, RelationAccess):
                    leaf = shared.get((operator.name, attributes))
                    if leaf is None:
                        source = database.table(operator.name)
                        self._base_tables[operator.name] = source
                        leaf = _Leaf(operator.name, source.schema, attributes, source.rows)
                        shared[operator.name, attributes] = leaf
                        self._readers.setdefault(operator.name, []).append(leaf)
                else:  # a ConstantRelation: its rows never change, but are sliced alike
                    leaf = _Leaf("constant", operator.schema, attributes, operator.rows)
                self._leaves.append(leaf)
            result = execute_batch_plan(
                self._plan, ExecutionContext(database, snapshot=database.working())
            )
            self._key_of: Callable[[Row], Key] = tuple_getter(
                [result.schema.index(attribute) for attribute in self._key]
            )
            self._result = self._by_key(result.rows)
            schema = result.schema
            period = (T_BEGIN, T_END) if T_BEGIN in schema and T_END in schema else None
            self._table = database.create_table(
                self.name, schema, self._flattened(), period=period
            )
            self.counters["incremental.full_refresh"] += 1

    def _by_key(self, rows: Iterable[Row]) -> Dict[Key, List[Row]]:
        grouped: Dict[Key, List[Row]] = {}
        key_of = self._key_of
        for row in rows:
            grouped.setdefault(key_of(row), []).append(row)
        return grouped

    def _flattened(self) -> List[Row]:
        return list(chain.from_iterable(self._result.values()))

    # -- delta application --------------------------------------------------------------

    def apply(
        self,
        deltas: Delta | Iterable[Delta],
        statistics: Optional[Dict[str, int]] = None,
    ) -> "MaterializedView":
        """Bring the view up to date with base-table deltas (DML; no DDL bump).

        ``deltas`` is one :class:`Delta` or an iterable of them; batches
        against the same relation merge first.  The caller is
        responsible for the base tables themselves -- `Database.insert` /
        ``Database.delete`` feed registered views automatically, while
        calling ``apply`` directly maintains the view against a *detached*
        stream that never lands in the catalog.

        If DDL invalidated the view since registration, the stream cannot
        be trusted against the rebuilt plan: the view full-refreshes from
        the catalog, then applies this delta on top.
        """
        with self._pipeline.database.writing():
            return self._apply(deltas, statistics, delta_in_catalog=False)

    def _apply(
        self,
        deltas: Delta | Iterable[Delta],
        statistics: Optional[Dict[str, int]],
        delta_in_catalog: bool,
    ) -> "MaterializedView":
        batch = [deltas] if isinstance(deltas, Delta) else list(deltas)
        before = dict(self.counters)
        if self.stale:
            self.refresh()
            # A catalog-routed delta describes a mutation the refresh
            # already read back; re-applying it would double-count.
            if delta_in_catalog:
                batch = []
        base: Dict[str, ZSet] = {}
        for delta in batch:
            if delta.relation not in self._readers:
                raise IncrementalError(
                    f"view {self.name!r} does not read relation "
                    f"{delta.relation!r}; it maintains {sorted(self.base_relations)}"
                )
            add_into(base.setdefault(delta.relation, {}), delta.entries)
        base = {name: zset for name, zset in base.items() if zset}
        if base:
            self._check(base)
            self.counters["incremental.delta_rows"] += sum(
                len(zset) for zset in base.values()
            )
            self._recompute(self._absorb(base))
        if statistics is not None:
            for key in COUNTER_KEYS:
                gained = self.counters[key] - before.get(key, 0)
                if gained:
                    statistics[key] = statistics.get(key, 0) + gained
        return self

    def _observe_dml(self, name: str, delta: Dict[Row, int]) -> None:
        """Catalog DML observer: route relevant mutations in as deltas."""
        if name in self._readers:
            self._apply(Delta(name, delta), None, delta_in_catalog=True)

    def _check(self, base: Dict[str, ZSet]) -> None:
        """Refuse the whole batch before anything is touched.

        Every leaf reading a relation holds a full copy of it, so the first
        one answers for all of them.
        """
        for name, entries in base.items():
            leaf = self._readers[name][0]
            arity, key_of, partitions = len(leaf.schema), leaf.key_of, leaf.partitions
            for row, weight in entries.items():
                if len(row) != arity:
                    raise IncrementalError(
                        f"delta row {row!r} does not match schema {leaf.schema} "
                        f"of relation {name!r}"
                    )
                if weight < 0:
                    held = partitions.get(key_of(row), {}).get(row, 0)
                    if held + weight < 0:
                        raise IncrementalError(
                            f"delta drives multiplicity of row {row!r} to "
                            f"{held + weight}; deleting a row that is not present?"
                        )

    def _absorb(self, base: Dict[str, ZSet]) -> Set[Key]:
        """Fold a checked batch into the input partitions; the keys it touched."""
        dirty: Set[Key] = set()
        cancelled = 0
        for name, entries in base.items():
            for leaf in self._readers[name]:
                key_of, partitions = leaf.key_of, leaf.partitions
                for row, weight in entries.items():
                    key = key_of(row)
                    dirty.add(key)
                    partition = partitions.get(key)
                    if partition is None:
                        partition = partitions[key] = {}
                    count = partition.get(row, 0) + weight
                    if count:
                        partition[row] = count
                        continue
                    cancelled += 1
                    del partition[row]
                    if not partition:
                        del partitions[key]
        self.counters["incremental.consolidated_rows"] += cancelled
        return dirty

    def _recompute(self, dirty: Set[Key]) -> None:
        """Run the pinned plan over the dirty partitions and swap their output."""
        self.counters["incremental.resweep_groups"] += len(dirty)
        slices = {
            leaf: ConstantRelation(leaf.schema, leaf.rows_of(dirty))
            for leaf in set(self._leaves)
        }
        plan = _with_leaves(self._plan, iter([slices[leaf] for leaf in self._leaves]))
        fresh = self._by_key(engine_execute(plan, self._pipeline.database).rows)
        result = self._result
        for key in dirty:
            if key in fresh:
                result[key] = fresh[key]
            else:
                result.pop(key, None)
        # A new list, never an in-place rewrite: the version readers hold
        # keeps the old one, and the table's next version is published with
        # the rest of this write.
        self._table.rows = self._flattened()


def _with_leaves(plan: Operator, leaves: Iterator[Operator]) -> Operator:
    """``plan`` with its leaves replaced, in depth-first order, from ``leaves``."""
    children = plan.children()
    if not children:
        return next(leaves)
    return plan.with_children(*[_with_leaves(child, leaves) for child in children])
