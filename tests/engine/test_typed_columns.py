"""The typed forms of a column: derived once per table version, never stale, never torn.

A base table's columns -- and the int64 arrays / dictionary codes the kernels
derive from them -- live in one place, the ``Table._columns_cache`` entry that
``ColumnarBatch.from_table`` writes.  These tests fail if a form is cached
anywhere else (it would survive DML), if a write landing while a form is being
derived can leak into it, or if anything below the kernel cutover -- or
without numpy -- ever builds an array.  ``derivations`` spies on the two
functions through which every typed form is born from a values list.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import connect
from repro.algebra.expressions import attr
from repro.algebra.operators import AggregateSpec, RelationAccess
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
    # Dropping the entry drops the forms: they were cached nowhere else.
    table._columns_cache = None
    assert _kernel_served(_top_per_name(), database) == before
    assert len(derivations) == 5


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
    # Each write dropped the entry: every query above derived its own forms.
    assert len(derivations) == 3 * 5


def test_a_view_write_at_equal_length_replaces_the_list_and_the_forms(derivations):
    """``view.apply`` never rewrites the backing list in place: a reader holding
    the old list keeps a whole pre-write snapshot, the next query derives anew."""
    pytest.importorskip("numpy")
    with connect(domain=(0, 20)) as session:
        works = session.load("works", ["name", "value"], _rows(2 * N))
        view = session.materialize(works.where("value >= 0"), name="v")
        database = session.pipeline.database
        backing = database.table("v")
        plan = _top_per_name("v")
        before = _kernel_served(plan, database)
        held, snapshot = backing.rows, list(backing.rows)
        assert len(held) >= N
        del derivations[:]
        assert _kernel_served(plan, database) == before and derivations == []

        old = next(row for row in backing.rows if row[0] == "n3")
        new = ("n3", 10**6) + old[2:]
        view.apply(Delta("works", {old: -1, new: 1}))
        assert backing.rows is not held and len(backing.rows) == len(held)
        assert held == snapshot, "the list a reader took before the write changed"
        after = _kernel_served(plan, database)
        assert after != before and any("1000000" in row for row in after)
        # Served from forms derived over the new list, not from cached ones.
        assert len(derivations) == 5 and {n for _, n in derivations} == {len(held)}


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
    racing = execute(_top_per_name(), database, statistics)
    assert InsertsWhenCoded.fired and len(table.rows) == N + 2
    assert statistics["batch.aggregate_vectorized"] == 1
    # One consistent snapshot: the table before the insert, group for group.
    assert not any(row[0] == "late" for row in racing.rows)
    assert sum(row[2] for row in racing.rows if row[3] == 0) == sum(
        1 for row in rows if row[2] == 0
    )
    # The next read derives its forms from the longer table.
    following = _kernel_served(_top_per_name(), database)
    assert any("'late'" in row for row in following)
    assert ("_code_form", N + 2) in derivations


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
