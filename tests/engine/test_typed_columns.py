"""The typed forms of a column: derived once, carried by DML, never stale, never torn.

A base table's columns -- and the int64 arrays / dictionary codes the kernels
derive from them -- live in one place, the ``TableVersion`` a query reads.
DML builds the next version's forms from them and the rows that changed; a
version is never altered once published and never references the one before
it.  These tests fail if a form is cached anywhere else (it would survive a
replaced table), if a write landing while a query runs can leak into it, if a
carried form differs from a fresh derivation, or if anything below the kernel
cutover -- or without numpy -- ever builds an array.  ``derivations`` spies on
the two functions through which every typed form is born from a values list.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import connect
from repro.algebra.expressions import attr
from repro.algebra.operators import AggregateSpec, Difference, Distinct, RelationAccess, Union
from repro.engine import Database, execute, kernels
from repro.engine.batch import ColumnarBatch
from repro.incremental import Delta
from repro.rewriter.operators import CoalesceOperator, TemporalAggregateOperator

SCHEMA = ("name", "value", "t_begin", "t_end")
N = kernels.KERNEL_CUTOVER


def _rows(n: int, offset: int = 0) -> List[Tuple]:
    return [(f"n{i % 7}", offset + i, i % 11, i % 11 + 3) for i in range(n)]


@pytest.fixture
def derivations(monkeypatch):
    """``(function, rows scanned)`` for every typed form derived from a values list."""
    calls: List[Tuple[str, int]] = []
    for name in ("_int_form", "_code_form"):
        derive = getattr(kernels, name)

        def spy(values, _derive=derive, _name=name):
            calls.append((_name, len(values)))
            return _derive(values)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def _kernel_served(plan, database) -> Counter:
    """The plan's result, checked against the reference and to have run on kernels."""
    statistics: Dict[str, int] = {}
    result = execute(plan, database, statistics)
    assert any(name.endswith("_vectorized") for name in statistics), statistics
    assert "preaggregated_rows" not in statistics
    bag = Counter(map(repr, result.rows))
    assert bag == Counter(map(repr, execute(plan, database, executor="row").rows))
    return bag


def _top_per_name(table: str = "t"):
    return TemporalAggregateOperator(
        RelationAccess(table),
        ("name",),
        (AggregateSpec("max", attr("value"), "top"), AggregateSpec("count", None, "n")),
    )


def _check_forms(column, values) -> None:
    """``column``'s int form and codes are what a fresh scan of ``values`` gives."""
    np = kernels.np
    expected, got = kernels.Column(list(values)).nullable_ints(), column.nullable_ints()
    assert (expected is None) == (got is None)
    if expected is not None:
        assert np.array_equal(expected[0], got[0]) and got[0].dtype == np.int64
        assert (expected[1] is None) == (got[1] is None)
        assert expected[1] is None or np.array_equal(expected[1], got[1])
    # Codes may be numbered differently; they must say the same rows are equal.
    codes, dictionary = column.codes()
    decode = {code: value for value, code in dictionary.items()}
    assert len(decode) == len(dictionary)
    assert [decode[code] for code in codes.tolist()] == list(values)
    assert repr(column.values) == repr(list(values))


def test_forms_are_derived_once_per_table_version_and_only_in_the_cache_entry(derivations):
    pytest.importorskip("numpy")
    database = Database()
    table = database.create_table("t", SCHEMA, _rows(N))
    before = _kernel_served(_top_per_name(), database)
    # Each column is asked for its int form once, the string column then for its codes.
    assert sorted(derivations) == [("_code_form", N)] + [("_int_form", N)] * 4
    del derivations[:]
    assert _kernel_served(_top_per_name(), database) == before
    assert _kernel_served(CoalesceOperator(RelationAccess("t")), database)
    assert derivations == [], "a second query re-derived a cached form"
    # A replaced table derives anew: the forms lived on the version, nowhere else.
    database.create_table("t", SCHEMA, list(table.rows))
    assert _kernel_served(_top_per_name(), database) == before
    assert len(derivations) == 5


def test_a_coalesce_over_a_difference_reads_the_forms_the_scans_derived(derivations):
    """Difference, distinct and union above the cutover hand typed columns on.

    The bag difference gathers its left input at the surviving rows, forms
    included, so REWR's coalesce above it scans nothing: every derivation is
    one of a whole table, made once, and a second run makes none.
    """
    pytest.importorskip("numpy")
    database = Database()
    database.create_table("t", SCHEMA, _rows(2 * N))
    database.create_table("u", SCHEMA, _rows(N, offset=N // 2))
    plans = [
        CoalesceOperator(Difference(RelationAccess("t"), RelationAccess("u"))),
        CoalesceOperator(Distinct(Union(RelationAccess("u"), RelationAccess("t")))),
    ]
    for plan, counter in zip(plans, ("batch.except_all_vectorized", "batch.distinct_vectorized")):
        statistics: Dict[str, int] = {}
        result = execute(plan, database, statistics)
        assert statistics[counter] == statistics["batch.coalesce_vectorized"] == 1
        assert Counter(map(repr, result.rows)) == Counter(
            map(repr, execute(plan, database, executor="row").rows)
        )
    assert statistics["batch.union_vectorized"] == 1
    # The first plan asked for int form and codes of what it read; nothing since.
    assert sorted(derivations) == sorted(
        [(form, n) for n in (2 * N, N) for form in ["_int_form"] * 4 + ["_code_form"]]
    )
    del derivations[:]
    for plan in plans:
        assert execute(plan, database).rows
    assert derivations == []


def test_insert_and_delete_are_seen_by_the_next_kernel_served_query(derivations):
    pytest.importorskip("numpy")
    database = Database()
    database.create_table("t", SCHEMA, _rows(N))
    before = _kernel_served(_top_per_name(), database)

    database.insert("t", [("n0", 10**6, 0, 3)])
    inserted = _kernel_served(_top_per_name(), database)
    assert inserted != before and any("1000000" in row for row in inserted)

    database.delete("t", [("n0", 10**6, 0, 3)])
    assert _kernel_served(_top_per_name(), database) == before
    # The writes carried the forms: the insert scanned its 1-row tail (the
    # three int columns), the delete nothing, and nobody the N rows again.
    assert [n for _, n in derivations] == [N] * 5 + [1, 1, 1]

    def served(plan) -> Tuple[Counter, List[int]]:
        """The result -- that of a table built fresh from the same list -- and the rows scanned for it."""
        del derivations[:]
        result = _kernel_served(plan, database)
        scanned = [n for _, n in derivations]
        fresh = Database()
        fresh.create_table("t", SCHEMA, list(database.table("t").rows))
        assert result == _kernel_served(plan, fresh)
        return result, scanned

    # A new string lands in a coded column, a non-int in an int column: the
    # tail decides, by the rules the whole column would have been scanned by.
    database.insert("t", [("brand-new", 7, 1, 4)])
    result, scanned = served(_top_per_name())
    assert any("'brand-new'" in row for row in result) and scanned == []
    grouped = CoalesceOperator(RelationAccess("t"))  # by (name, value): value read as ints
    assert served(grouped)[1] == []
    database.insert("t", [("n0", 2.5, 0, 3), ("n0", None, 0, 3)])
    result, scanned = served(grouped)
    # ``value`` is no int column any more: it is coded, once, over all its rows.
    assert any("2.5" in row for row in result) and scanned == [N + 3]
    assert served(grouped)[1] == []


def test_a_view_write_at_equal_length_replaces_the_list_and_the_forms(derivations):
    """``view.apply`` gives the backing table a new version: a reader holding
    the old one keeps a whole pre-write snapshot, the next query derives anew."""
    pytest.importorskip("numpy")
    with connect(domain=(0, 20)) as session:
        works = session.load("works", ["name", "value"], _rows(2 * N))
        view = session.materialize(works.where("value >= 0"), name="v")
        database = session.pipeline.database
        backing = database.table("v")
        plan = _top_per_name("v")
        before = _kernel_served(plan, database)
        held = database.snapshot()["v"]
        snapshot = held.rows()
        assert held.count >= N and snapshot == backing.rows
        del derivations[:]
        assert _kernel_served(plan, database) == before and derivations == []
        assert database.snapshot()["v"] is held, "a read replaced the version"

        old = next(row for row in backing.rows if row[0] == "n3")
        new = ("n3", 10**6) + old[2:]
        view.apply(Delta("works", {old: -1, new: 1}))
        # What the maintenance itself scanned (the inserted row, the key's
        # codes) is over "works"; from here on only reads of "v" derive.
        del derivations[:]
        current = database.snapshot()["v"]
        assert current is not held and current.id != held.id and current.count == held.count
        assert current.rows() == backing.rows != snapshot
        assert held.rows() == snapshot, "the version a reader took before the write changed"
        after = _kernel_served(plan, database)
        assert after != before and any("1000000" in row for row in after)
        # Served from forms derived over the new version, not from the old one's.
        assert len(derivations) == 5 and {n for _, n in derivations} == {held.count}


def test_a_write_landing_while_a_form_is_derived_does_not_tear_it(derivations):
    """PR 15's thread-free race, one stage later: the insert fires inside the dict pass.

    The first name hashes itself into the dictionary -- which is when it
    performs the insert.  The form being derived belongs to the snapshot the
    query started from; the rows that landed meanwhile are the next query's.
    """
    pytest.importorskip("numpy")
    database = Database()

    class InsertsWhenCoded(str):
        fired = False

        def __hash__(self):
            if derivations and not InsertsWhenCoded.fired:
                InsertsWhenCoded.fired = True
                database.insert("t", [("late", 10**6, 0, 4), ("late", 10**6 + 1, 2, 6)])
            return super().__hash__()

        __eq__ = str.__eq__

    rows = _rows(N)
    rows[0] = (InsertsWhenCoded(rows[0][0]),) + rows[0][1:]
    table = database.create_table("t", SCHEMA, rows)

    statistics: Dict[str, int] = {}
    started_from = database.snapshot()["t"]
    racing = execute(_top_per_name(), database, statistics)
    assert InsertsWhenCoded.fired and len(table.rows) == N + 2
    assert statistics["batch.aggregate_vectorized"] == 1
    # The write made a version of its own; the one the query read is as it was.
    assert database.snapshot()["t"] is not started_from
    assert (started_from.count, database.snapshot()["t"].count) == (N, N + 2)
    assert started_from.rows() == rows
    # One consistent snapshot: the table before the insert, group for group.
    assert not any(row[0] == "late" for row in racing.rows)
    assert sum(row[2] for row in racing.rows if row[3] == 0) == sum(
        1 for row in rows if row[2] == 0
    )
    # The next read derives its forms from the longer table.
    following = _kernel_served(_top_per_name(), database)
    assert any("'late'" in row for row in following)
    assert ("_code_form", N + 2) in derivations


def test_a_write_between_two_scans_of_one_plan_is_not_seen_by_the_second():
    """One query, one snapshot: ``R`` and the view over ``R`` as of the query's start.

    Thread-free, same trick: the view's query over ``R`` runs first and
    codes the names -- which is when one of them deletes a row of ``R``,
    the view following suit -- and only then is the view's table scanned.
    Before versions the second scan read the catalog as it was by then, and
    the difference held the group the write had changed.  ``view.verify()``
    is the two differences as one plan: read at two moments instead (the
    plan's result, then the table) a correct view fails its own check.
    """
    pytest.importorskip("numpy")

    class WritesWhenCoded(str):
        armed = False

        def __hash__(self):
            if WritesWhenCoded.armed:
                WritesWhenCoded.armed = False
                session.delete("works", [doomed])
            return super().__hash__()

        __eq__ = str.__eq__

    rows = _rows(N)
    rows[0] = (WritesWhenCoded(rows[0][0]),) + rows[0][1:]
    doomed = rows[-1]
    with connect(domain=(0, 20)) as session:
        works = session.load("works", ["name", "value"], rows)
        view = session.materialize(works.group_by("name").agg(n="count(*)"), name="v")
        database = session.pipeline.database
        for plan in (
            Difference(view.plan, RelationAccess("v")),
            Difference(RelationAccess("v"), view.plan),
        ):
            assert execute(plan, database).rows == []
            published = database.snapshot()
            WritesWhenCoded.armed = True
            assert execute(plan, database).rows == []
            assert not WritesWhenCoded.armed, "the write did not fire inside the query"
            # The write is whole -- table and view, one publish -- and the next query's.
            assert {
                name for name, version in database.snapshot().items()
                if version is not published[name]
            } == {"works", "v"}
            assert execute(plan, database).rows == [] and view.verify()
            session.insert("works", [doomed])
        WritesWhenCoded.armed = True
        assert view.verify(), "verify compared the plan before a write with the table after it"
        assert not WritesWhenCoded.armed, "the write did not fire inside verify"


def test_delete_then_insert_of_a_batch_leaves_forms_equal_to_a_fresh_derivation(derivations):
    """Int, nullable int, coded and known-not-int: carried == derived from the new list."""
    pytest.importorskip("numpy")
    schema = ("whole", "holey", "name", "mixed")
    rows = [
        (i % 97 - 40, None if i % 5 == 0 else i * 3, f"n{i % 9}", i if i % 2 else f"s{i % 4}")
        for i in range(N + 40)
    ]
    database = Database()
    database.create_table("t", schema, rows)
    for column in database.snapshot()["t"].columns():
        column.nullable_ints(), column.codes()
    assert sorted(derivations) == [("_code_form", N + 40)] * 4 + [("_int_form", N + 40)] * 4

    batch = rows[3:N:7] + [rows[0], rows[5]]
    for step in range(2):
        del derivations[:]
        database.delete("t", batch)
        database.insert("t", batch if step else list(reversed(batch)))
        # Scanned: the tail, once per column whose int form was still open (two of four).
        assert derivations == [("_int_form", len(batch))] * 2
        version = database.snapshot()["t"]
        held = version.rows()
        assert Counter(held) == Counter(rows) and held[-len(batch):] != rows[-len(batch):]
        for position, carried in enumerate(version.columns()):
            values = [row[position] for row in held]
            assert carried._ints is not kernels._UNSET and carried._codes is not None
            _check_forms(carried, values)
            form = carried.nullable_ints()
            assert (form is None) == (position >= 2)
            assert form is None or (form[1] is None) == (position == 0)


def test_a_concatenated_column_has_the_forms_of_its_values_list():
    """What a union hands on, over every pairing of int, holey, coded and mixed halves."""
    pytest.importorskip("numpy")
    halves = [[], [3, 1, 2**40], [None, 7, None], ["a", "b", "a"], [1, 1.0, True, None, "a", 0, False]]
    for first in halves:
        for second in halves:
            joined = kernels.Column.concatenated(kernels.Column(first), kernels.Column(second))
            assert len(joined) == len(first) + len(second)
            _check_forms(joined, first + second)


def test_a_thousand_alternating_writes_leave_no_chain_and_no_oversized_dictionary():
    """A version dies with its last reader, and a dictionary never outgrows its table."""
    pytest.importorskip("numpy")
    database = Database()
    database.create_table("t", SCHEMA, _rows(N))
    plan = _top_per_name()
    execute(plan, database)
    for step in range(1000):
        predecessor = weakref.ref(database.snapshot()["t"])
        if step % 2:
            database.delete("t", [database.table("t").rows[0]])
        else:  # every insert brings a name no row had before
            database.insert("t", [(f"fresh-{step}", step, step % 11, step % 11 + 3)])
        execute(plan, database)
        assert predecessor() is None, f"write {step} left its predecessor reachable"
        count, columns = database.snapshot()["t"].count, database.snapshot()["t"].columns()
        assert all(column._source is None for column in columns)
        assert columns[0]._codes is not None and len(columns[0]._codes[1]) <= count
    assert count == N and _kernel_served(plan, database)


def test_a_direct_append_outside_the_catalog_is_seen_by_the_next_kernel_served_query():
    pytest.importorskip("numpy")
    database = Database()
    table = database.create_table("t", SCHEMA, _rows(N))
    before = _kernel_served(_top_per_name(), database)
    table.append(("n0", 10**6, 0, 3))
    appended = _kernel_served(_top_per_name(), database)
    assert appended != before and any("1000000" in row for row in appended)
    table.rows = table.rows[:-1]
    assert _kernel_served(_top_per_name(), database) == before


def test_an_int_constant_is_projected_as_a_column_born_typed(derivations):
    """REWR's ``1 AS __agg_arg_0`` from the cutover on: an array, no list, no scan."""
    np = pytest.importorskip("numpy")
    from repro.algebra.expressions import Literal
    from repro.engine.batch import _projection

    constants = (1, True, 1.0, "1", None, 2**63)
    columns = tuple((Literal(value), f"c{position}") for position, value in enumerate(constants))
    for n in (N - 1, N):
        batch = ColumnarBatch("t", ("a",), [list(range(n))], [1] * n, all_ones=True)
        projected = _projection(batch, columns)
        one, *others = projected.typed
        if n < N:
            assert all(column._ints is kernels._UNSET for column in projected.typed)
        else:
            assert one._values is None and one.ints().dtype == np.int64
            assert one.ints().tolist() == [1] * n
        for column, value in zip(others, constants[1:]):
            # True, 1.0, a string, NULL and an int past int64 keep their lists.
            assert column._ints is kernels._UNSET
            assert [type(v) for v in column.values] == [type(value)] * n
        assert repr(one.values) == repr([1] * n)
    assert derivations == []


def test_a_32_row_plan_builds_no_array(derivations):
    """``adhoc_small``'s shape: every operator below the cutover, numpy or not."""
    with connect(domain=(0, 20)) as session:
        left = session.load("l", ["name", "value"], _rows(32))
        right = session.load("r", ["r_name", "r_value"], _rows(32, 5))
        chains = [
            left.join(right, on="name = r_name").group_by("name").agg(top="max(value)"),
            left.select("name").difference(right.where("r_value > 20").select("r_name")),
            left.group_by("name").agg(n="count(*)", total="sum(value)", low="min(value)"),
        ]
        for chain in chains:
            assert chain.rows()
            assert "vectorized" not in chain.explain()
        for name in ("l", "r"):
            batch = ColumnarBatch.from_table(session.pipeline.database.table(name))
            assert all(column._ints is kernels._UNSET for column in batch.typed)
            assert all(column._codes is None for column in batch.typed)
    assert derivations == []


def test_without_numpy_no_column_ever_has_a_typed_form():
    """A run with the numpy import blocked: inputs above the cutover, the scalar route only."""
    script = textwrap.dedent(
        """
        import importlib.abc, sys

        class Block(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ModuleNotFoundError(name)

        sys.meta_path.insert(0, Block())
        from repro import connect
        from repro.engine import kernels

        assert kernels.np is None and not kernels.worthwhile(10**6)

        def refuse(values):
            raise AssertionError("a typed form was derived without numpy")

        kernels._int_form = kernels._code_form = refuse
        rows = [(f"n{i % 7}", i, i % 11, i % 11 + 3) for i in range(2 * kernels.KERNEL_CUTOVER)]
        with connect(domain=(0, 20)) as session:
            left = session.load("l", ["name", "value"], rows)
            right = session.load("r", ["r_name", "r_value"], rows)
            chain = left.join(right, on="name = r_name").group_by("name").agg(top="max(value)")
            assert len(chain.rows()) > 7 and "vectorized" not in chain.explain()
            assert left.where("value > 3").select("name").difference(right.select("r_name")).rows() == []
        print("ok")
        """
    )
    source = Path(kernels.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(source), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
