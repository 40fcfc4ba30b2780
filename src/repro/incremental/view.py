"""Materialized temporal views maintained by re-running dirty partitions.

A :class:`MaterializedView` pins one rewritten snapshot plan (REWR +
planner output, exactly what the pipeline would execute).  Everything REWR
adds is defined *per group* -- coalescing and the monus sweep per set of
value-equivalent rows, the fused temporal aggregation per grouping -- so
restricting the view to some values of its **partition key** commutes with
the whole plan: the key is the set of output attributes a selection could
sink on to every leaf (:mod:`repro.incremental.partition` asks the
planner).  The view keeps everything on the engine's own storage layout,
table versions:

* per relation the plan reads, a :class:`~repro.engine.table.TableVersion`
  -- the catalog's own current version for as long as no *detached* delta
  stream has fed the view; from the first such delta on, the view's own
  successor of it, built by the catalog's ``positions`` / ``without`` /
  ``appended``;
* the result, one row list in which each key's rows are one contiguous run,
  and each key's run length;
* nothing per operator.

A :class:`~repro.incremental.Delta` names the keys it touches.  Each leaf's
**dirty slice** -- the rows holding a dirty key, found on the key columns'
codes and gathered with their typed forms
(:meth:`~repro.engine.table.TableVersion.restricted`) -- is a version of its
own, which the pinned plan scans like any table: it runs **once**, through
the engine, over the slices.  The result's successor is its clean runs,
sliced, with the fresh runs spliced in their place.  A plan that admits no
key -- an ungrouped aggregate, a join with no equality on a surviving
attribute, an operator the planner cannot see through -- is the same code
with one partition: every delta re-executes it, over the leaves' versions
themselves.

The contents are registered as a catalog table -- registration is DDL (it
bumps ``Database.schema_version`` and invalidates cached plans), while
:meth:`MaterializedView.apply` is DML and does not: it gives the table a new
row list inside the catalog's writer lock, published together with the
base-table write that caused it, so no query sees one without the other.
The change to that row list -- a full refresh's included -- is handed to
the table's DML observers as the view's own delta, so a view over this view
follows in the same write; it is computed only when some observer may read
the table (a view over it, or any callback that is not a view).  DDL after
registration marks the view stale; the next delta triggers one counted full
refresh instead of an incorrect propagation.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    DefaultDict,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ..algebra.operators import Difference, Operator, RelationAccess, Union
from ..engine.batch import ColumnarBatch, execute_batch_plan
from ..engine.executor import ExecutionContext
from ..engine.table import Table, TableError, TableVersion, tuple_getter
from ..errors import IncrementalError
from ..rewriter.periodenc import T_BEGIN, T_END
from .delta import Delta, Row, ZSet, add_into, zset_diff, zset_of
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
#: Where each key's rows sit in a row list: ``key -> (start, stop)``, in list order.
Runs = Dict[Key, Tuple[int, int]]


class _Occurrence(NamedTuple):
    """One leaf of the pinned plan: what it reads, and where the view's key sits in it."""

    #: The catalog table read, or ``"constant"``.
    label: str
    #: The leaf attributes holding the view's partition key, in key order.
    attributes: Tuple[str, ...]
    #: Their positions in the leaf's schema.
    positions: Tuple[int, ...]
    #: A constant relation's rows (they never change); ``None`` for a catalog table.
    constant: Optional[TableVersion]


class MaterializedView:
    """A rewritten snapshot plan kept materialized under base-table deltas.

    Build through :meth:`repro.rewriter.pipeline.QueryPipeline.materialize`
    (or ``session.materialize(relation, name=...)``); the constructor runs
    one full evaluation, lays the result out by the plan's partition key
    and registers it as catalog table ``name`` (with period metadata when
    the output carries ``t_begin``/``t_end``), so other queries can
    reference it.
    """

    def __init__(self, name: str, query: Operator, pipeline: "QueryPipeline") -> None:
        self.name = name
        self.query = query
        self._pipeline = pipeline
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self._rows: List[Row] = []
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
                for leaf in self._slices
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
            self._plan = pipeline.rewrite(self.query)
            self._key, held = infer_partition_key(self._plan, database)
            self._leaves: List[_Occurrence] = []
            self._base_tables: Dict[str, Table] = {}
            occurrences = [node for node in self._plan.walk() if not node.children()]
            for operator, attributes in zip(occurrences, held):
                constant = None
                if isinstance(operator, RelationAccess):
                    label = operator.name
                    source = self._base_tables[label] = database.table(label)
                    schema = source.schema
                else:  # a ConstantRelation: its rows never change, but are sliced alike
                    label, schema = "constant", operator.schema
                    constant = Table(label, schema, operator.rows).version
                positions = tuple(schema.index(attribute) for attribute in attributes)
                self._leaves.append(_Occurrence(label, attributes, positions, constant))
            #: Per relation read: the view's own version of it, or ``None`` --
            #: the catalog's current one.
            self._held: Dict[str, Optional[TableVersion]] = dict.fromkeys(self._base_tables)
            # REWR reads a relation once per split input: occurrences keyed by
            # the same attributes share one slice, scanned as table "#i".
            self._slices = list(dict.fromkeys(self._leaves))
            names = [RelationAccess(f"#{self._slices.index(leaf)}") for leaf in self._leaves]
            self._sliced = _with_leaves(self._plan, iter(names))
            output = execute_batch_plan(
                self._plan, ExecutionContext(database, snapshot=database.working())
            )
            schema = output.schema
            self._key_at = tuple(schema.index(attribute) for attribute in self._key)
            before = self._rows
            self._rows, runs = _runs(output, self._key_at)
            self._slots = {key: slot for slot, key in enumerate(runs)}
            self._sizes = [stop - start for start, stop in runs.values()]
            period = (T_BEGIN, T_END) if T_BEGIN in schema and T_END in schema else None
            self._table = database.create_table(self.name, schema, self._rows, period=period)
            self.counters["incremental.full_refresh"] += 1
            # Views over this one went stale with the table just replaced;
            # the change tells them to rebuild within this write.
            if self._observed():
                self._publish(self._rows, before)

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
            if delta.relation not in self._held:
                raise IncrementalError(
                    f"view {self.name!r} does not read relation "
                    f"{delta.relation!r}; it maintains {sorted(self.base_relations)}"
                )
            add_into(base.setdefault(delta.relation, {}), delta.entries)
        base = {name: zset for name, zset in base.items() if zset}
        if base:
            # Every successor is built -- every row checked -- before one is kept.
            successors = {
                name: self._successor(name, entries, delta_in_catalog)
                for name, entries in base.items()
            }
            self._held.update(successors)
            entries = [weight for zset in base.values() for weight in zset.values()]
            self.counters["incremental.delta_rows"] += len(entries)
            self.counters["incremental.consolidated_rows"] += sum(
                weight < 0 for weight in entries
            )
            self._recompute(self._dirty(base))
        if statistics is not None:
            for key in COUNTER_KEYS:
                gained = self.counters[key] - before.get(key, 0)
                if gained:
                    statistics[key] = statistics.get(key, 0) + gained
        return self

    def _observe_dml(self, name: str, delta: Dict[Row, int]) -> None:
        """Catalog DML observer: route relevant mutations in as deltas."""
        if name in self._held:
            self._apply(Delta(name, delta), None, delta_in_catalog=True)

    def _successor(
        self, name: str, entries: ZSet, in_catalog: bool
    ) -> Optional[TableVersion]:
        """What the view reads of ``name`` after ``entries``; ``None``: the catalog's version."""
        own = self._held[name]
        if own is None and in_catalog:
            return None  # the catalog built the successor already
        version = own if own is not None else self._pipeline.database.table(name).version
        for row in entries:
            if len(row) != len(version.schema):
                raise IncrementalError(
                    f"delta row {row!r} does not match schema {version.schema} "
                    f"of relation {name!r}"
                )
        removing = {row: -weight for row, weight in entries.items() if weight < 0}
        # The first detached write starts a row list of the view's own: an
        # insert never lands in the list the catalog's table holds.
        if removing or own is None:
            try:
                doomed = version.positions(removing) if removing else []
            except TableError as error:
                raise IncrementalError(
                    f"delta deletes rows view {self.name!r} does not hold: {error}"
                ) from error
            version = version.without(doomed)
        added = [row for row, weight in entries.items() if weight > 0 for _ in range(weight)]
        return version.appended(added) if added else version

    def _dirty(self, base: Dict[str, ZSet]) -> Set[Key]:
        """The keys a batch touches: each changed row's key at every leaf reading it."""
        dirty: Set[Key] = set()
        for leaf in self._slices:
            if leaf.constant is None and leaf.label in base:
                dirty.update(map(tuple_getter(leaf.positions), base[leaf.label]))
        return dirty

    def _recompute(self, dirty: Set[Key]) -> None:
        """Run the pinned plan over the dirty slices and splice its output into the result."""
        self.counters["incremental.resweep_groups"] += len(dirty)
        database = self._pipeline.database
        slices: Dict[str, TableVersion] = {}
        for index, leaf in enumerate(self._slices):
            version = leaf.constant
            if version is None:
                version = self._held[leaf.label] or database.table(leaf.label).version
            slices[f"#{index}"] = version.restricted(leaf.positions, dirty)
        output = execute_batch_plan(self._sliced, ExecutionContext(database, snapshot=slices))
        fresh, runs = _runs(output, self._key_at)
        self._splice(dirty.union(runs), fresh, runs)

    def _splice(self, keys: Iterable[Key], fresh: List[Row], runs: Runs) -> None:
        """The result with the runs of ``keys`` replaced by theirs in ``fresh`` (none: dropped)."""
        slots, sizes, old = self._slots, self._sizes, self._rows
        for key in runs:
            if key not in slots:  # a new key's run goes after all others
                slots[key] = len(sizes)
                sizes.append(0)
        starts = list(accumulate(sizes, initial=0))
        observed = self._observed()
        rows: List[Row] = []
        gone: List[Row] = []
        came: List[Row] = []
        at = 0
        for slot, key in sorted((slots[key], key) for key in keys if key in slots):
            start, stop = starts[slot], starts[slot + 1]
            first, last = runs.get(key, (0, 0))
            rows += old[at:start]
            rows += fresh[first:last]
            sizes[slot] = last - first
            if observed:
                gone += old[start:stop]
                came += fresh[first:last]
            at = stop
        # Up to the runs' end only: rows a direct catalog write appended to
        # the backing table behind the view's back are not the view's.
        rows += old[at : starts[-1]]
        # A new list, never an in-place rewrite: the version readers hold
        # keeps the old one, and the table's next version is published with
        # the rest of this write.
        self._rows = self._table.rows = rows
        if 2 * sizes.count(0) > len(sizes):  # keys that left: drop their empty runs
            live = [(key, size) for key, size in zip(slots, sizes) if size]
            self._slots = {key: slot for slot, (key, _size) in enumerate(live)}
            self._sizes = [size for _key, size in live]
        if observed:
            self._publish(came, gone)

    def _observed(self) -> bool:
        """Whether a DML observer may read this view's table: a view over it, or any other callback.

        Only then is the change worth computing; a view reading other
        tables would ignore it, and a first build has no reader yet.
        """
        for observer in self._pipeline.database._observers:
            view = getattr(observer, "__self__", None)
            if not isinstance(view, MaterializedView):
                return True
            if view is not self and self.name in view._held:
                return True
        return False

    def _publish(self, new: Iterable[Row], old: Iterable[Row]) -> None:
        """Hand the backing table's change to its DML observers.

        Inside the same writer lock: a view over this view follows in the
        same write, and the whole stack commits as one.
        """
        delta = zset_diff(zset_of(new), zset_of(old))
        self._pipeline.database._notify_dml(self.name, delta)


def _runs(batch: ColumnarBatch, key: Tuple[int, ...]) -> Tuple[List[Row], Runs]:
    """The batch's rows, multiplicities expanded, with each key's rows one contiguous run.

    One ``dict`` pass groups them, keys in order of first appearance.  The
    keys are read at C speed (``itemgetter``: a one-attribute key is its
    value, wrapped into a tuple once per run, not once per row).
    """
    rows = batch.expanded_rows()
    if not key or not rows:
        return list(rows), {(): (0, len(rows))} if rows else {}
    grouped: DefaultDict[Any, List[Row]] = defaultdict(list)
    for value, row in zip(map(itemgetter(*key), rows), rows):
        grouped[value].append(row)
    keys = grouped if len(key) > 1 else [(value,) for value in grouped]
    bounds = list(accumulate(map(len, grouped.values()), initial=0))
    return list(chain.from_iterable(grouped.values())), dict(zip(keys, zip(bounds, bounds[1:])))


def _with_leaves(plan: Operator, leaves: Iterator[Operator]) -> Operator:
    """``plan`` with its leaves replaced, in depth-first order, from ``leaves``."""
    children = plan.children()
    if not children:
        return next(leaves)
    return plan.with_children(*[_with_leaves(child, leaves) for child in children])
