"""The conformance oracle catches a bug in each shared scalar sweep.

The row reference and the engine's scalar route call the same functions of
:mod:`repro.engine.sweeps`, so the reference differential cannot see a bug
in one of them: both sides would carry it.  The abstract-model oracle of
:func:`repro.conformance.check_conformance` can -- it evaluates every
snapshot without running any of the engine's code.  Each mutant below is a
shipped sweep with one realistic bug (its source recompiled with one snippet
replaced), patched into the module while every operator is kept on its
scalar route (``KERNEL_CUTOVER`` out of reach; without numpy that route is
the only one).  The oracle must pass the pristine sweep on the trigger query
and produce a counterexample for the mutant.  Kernel mutants are patched
into :mod:`repro.engine.kernels` the same way, with every operator on its
kernel route (``KERNEL_CUTOVER`` at 0; numpy only).

The SQL lowering is checked the same way: a mutant of one
:class:`~repro.backends.sqlcompile.SQLCompiler` method, its source
recompiled with one snippet replaced, is patched into the class, and the
oracle must tell the SQLite backend's rows from its snapshots.  The SQL
path runs no numpy, so both jobs run it alike.
"""

from __future__ import annotations

import inspect
import textwrap
from functools import partial

import pytest

from repro.algebra.expressions import Comparison, attr
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Union,
)
from repro.backends import sqlcompile
from repro.baselines import SplitThenAggregateRewriter
from repro.conformance import check_conformance
from repro.datasets.running_example import TIME_DOMAIN, populate_database, query_skillreq
from repro.engine import kernels, sweeps
from repro.engine.catalog import Database
from repro.rewriter import SnapshotRewriter


def mutated(function, old: str, new: str, module=sweeps):
    """``function`` recompiled in ``module``'s namespace with every ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"{function.__qualname__} no longer contains {old!r}: update the mutant"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _skills(relation: str, skill: str):
    return Projection(RelationAccess(relation), ((attr(skill), "skill"),))


#: Skills on duty, counted per skill: a temporal aggregate under REWR's coalesce.
SKILL_COUNTS = Aggregation(
    _skills("works", "skill"), ("skill",), (AggregateSpec("count", None, "cnt"),)
)

#: name -> (sweep, snippet, its buggy replacement, trigger query, what the bug is).
MUTANTS = {
    "interval sweep": (
        "interval_sweep",
        "rhs[j:k]",
        "rhs[j + 1:k]",
        Projection.of_attributes(
            Join(
                RelationAccess("works"),
                RelationAccess("assign"),
                Comparison("=", attr("skill"), attr("req_skill")),
            ),
            "name",
            "mach",
        ),
        "a left head scans the right input from the row after the right head, "
        "so it never pairs with the right head itself",
    ),
    "split segments": (
        "split_segments",
        "bounds = [begin, *cuts, end]",
        "bounds = [begin, *cuts]",
        query_skillreq(),
        "a row that is cut loses its last piece",
    ),
    "coalesce level": (
        "monus",
        "else open_count)",
        "else 1)",
        _skills("works", "skill"),
        "a positive level is 1 instead of the open count: set coalescing, each "
        "maximal interval once whatever its multiplicity",
    ),
    "level dispatch": (
        "monus",
        "1 if distinct else",
        "1 if subtrahend is None else",
        _skills("works", "skill"),
        "the clamp follows a missing subtrahend instead of the distinct flag: "
        "coalescing is given distinct's min(l, 1)",
    ),
    "merge across a gap": (
        "_sweep_group",
        "held[2] == previous and ",
        "",
        SKILL_COUNTS,
        "the aggregate joins a segment to the one before it whenever their values "
        "are equal, touching or not: SP's count 1 on [10, 16) and [18, 20) becomes [10, 20)",
    ),
    "temporal-aggregate sweep": (
        "temporal_aggregate",
        "buckets[key] = get(key, 0) + count",
        "buckets[key] = count",
        Aggregation(
            Union(_skills("works", "skill"), _skills("works", "skill")),
            ("skill",),
            (AggregateSpec("count", None, "cnt"),),
        ),
        "pre-aggregation keeps one duplicate's multiplicity instead of their sum",
    ),
    "monus clamp": (
        "monus",
        "if open_count > 0 else 0",
        "if open_count else 0",
        Union(query_skillreq(), _skills("works", "skill")),
        "no clamp at 0: where the right input holds more, a negative count "
        "reaches the union above and cancels rows there",
    ),
    "monus right end": (
        "monus",
        "append((gid, end, count))",
        "append((gid, end + 1, count))",
        query_skillreq(),
        "a right row's end event one step late: it removes its value one point too long",
    ),
    "bag difference": (
        "except_all",
        "remaining[row] = get(row, 0) - count",
        "remaining[row] = 0",
        Difference(_skills("assign", "req_skill"), _skills("works", "skill")),
        "EXCEPT for EXCEPT ALL: one right copy removes every left copy",
    ),
}


#: REWR evaluates difference and distinct with the monus sweep; the split and
#: ``EXCEPT ALL`` sweeps are reached through the ablation's split-based rewriting.
REWRITERS = {
    "split segments": SplitThenAggregateRewriter,
    "bag difference": SplitThenAggregateRewriter,
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_oracle_catches_a_bug_in_each_shared_sweep(name, monkeypatch):
    sweep, old, new, query, _bug = MUTANTS[name]
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 10**9)
    database = populate_database(Database())
    check = partial(
        check_conformance,
        query,
        database,
        TIME_DOMAIN,
        backends=("memory",),
        rewriter_cls=REWRITERS.get(name, SnapshotRewriter),
    )
    pristine = check()
    assert pristine.ok, pristine.counterexample and pristine.counterexample.describe()

    monkeypatch.setattr(sweeps, sweep, mutated(getattr(sweeps, sweep), old, new))
    report = check()
    assert not report.ok, f"the oracle missed the {name} mutant: {MUTANTS[name][-1]}"
    counterexample = report.counterexample
    assert counterexample.error is None, counterexample.error
    assert counterexample.expected != counterexample.actual


def _touching_database() -> Database:
    """Two SP workers, the second beginning one point before the first ends.

    Its row's begin makes the first row's last point, ``end - 1``, one the
    oracle looks at; the running example has no such point.
    """
    database = Database()
    database.create_table(
        "works",
        ["name", "skill", "t_begin", "t_end"],
        [("Ann", "SP", 0, 5), ("Joe", "SP", 4, 8)],
        period=("t_begin", "t_end"),
    )
    return database


def _trap_database() -> Database:
    """One value: L holds [0, 10) and [5, 8), R holds [0, 5).

    At 5 a left row begins where the right row ends, so the events' signs
    cancel while ``l - r`` rises by 2 (L - R is [5, 8) twice and [8, 10)).
    The running example has no such point.
    """
    database = Database()
    database.create_table(
        "L", ["v", "t_begin", "t_end"], [(1, 0, 10), (1, 5, 8)], period=("t_begin", "t_end")
    )
    database.create_table("R", ["v", "t_begin", "t_end"], [(1, 0, 5)], period=("t_begin", "t_end"))
    return database


#: name -> (kernel, snippet, its buggy replacement, trigger query, its catalog,
#: what the bug is).  Patched into :mod:`repro.engine.kernels` with every
#: operator on its kernel route.
KERNEL_MUTANTS = {
    "merge across a gap": (
        "_runs",
        "joined = begins[1:] == ends[:-1]",
        "joined = np.ones(len(begins) - 1, dtype=bool)",
        SKILL_COUNTS,
        lambda: populate_database(Database()),
        "the aggregate joins equal adjacent segments whether or not they touch",
    ),
    "dense grid edge": (
        "_step_sweep",
        "_tally_dense(rises, falls, cells",
        "_tally_dense(rises, falls - 1, cells",
        SKILL_COUNTS,
        _touching_database,
        "the counted tally closes every row one point early",
    ),
    "subtrahend sign": (
        "_step_sweep",
        "[b, right_e[kept]]), np.concatenate([e, right_b[kept]])",
        "[b, right_b[kept]]), np.concatenate([e, right_e[kept]])",
        Difference(RelationAccess("L"), RelationAccess("R")),
        _trap_database,
        "the subtrahend weighs +count: L - R sweeps as L + R",
    ),
    "distinct level": (
        "monus_vectorized",
        "() if distinct else ",
        "",
        Union(
            Distinct(_skills("works", "skill")),
            Difference(
                Union(_skills("works", "skill"), _skills("works", "skill")),
                _skills("assign", "req_skill"),
            ),
        ),
        lambda: populate_database(Database()),
        "distinct keeps the count as its level: where a union reads the counts (beside "
        "a difference that holds duplicates), an overlap keeps its duplicates",
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MUTANTS))
def test_the_oracle_catches_a_bug_in_each_kernel(name, monkeypatch):
    pytest.importorskip("numpy")
    kernel, old, new, query, build, _bug = KERNEL_MUTANTS[name]
    monkeypatch.setattr(kernels, "KERNEL_CUTOVER", 0)
    check = partial(check_conformance, query, build(), TIME_DOMAIN, backends=("memory",))
    pristine = check()
    assert pristine.ok, pristine.counterexample and pristine.counterexample.describe()

    monkeypatch.setattr(kernels, kernel, mutated(getattr(kernels, kernel), old, new, kernels))
    report = check()
    assert not report.ok, f"the oracle missed the kernel {name} mutant: {KERNEL_MUTANTS[name][-1]}"
    counterexample = report.counterexample
    assert counterexample.error is None, counterexample.error
    assert counterexample.expected != counterexample.actual


#: name -> (SQLCompiler method, snippet, its buggy replacement, trigger query,
#: its catalog, what the bug is).
SQL_MUTANTS = {
    "distinct clamp": (
        "_step_sweep",
        '"MIN(__open, 1)" if distinct',
        '"__open" if distinct',
        Distinct(_skills("works", "skill")),
        lambda: populate_database(Database()),
        "distinct's level is the open count, not min(l, 1): an overlap keeps its duplicates",
    ),
    "changepoint filter": (
        "_sweep",
        "HAVING SUM({deltas[0][1]}) <> 0",
        "HAVING SUM(__sign) <> 0",
        Difference(RelationAccess("L"), RelationAccess("R")),
        _trap_database,
        "points are kept where the events' signs, not l - r, change: a left begin "
        "at a right end is dropped",
    ),
}


@pytest.mark.parametrize("name", sorted(SQL_MUTANTS))
def test_the_oracle_catches_a_bug_in_the_sql_sweep(name, monkeypatch):
    method, old, new, query, build, _bug = SQL_MUTANTS[name]
    check = partial(check_conformance, query, build(), TIME_DOMAIN, backends=("sqlite",))
    pristine = check()
    assert pristine.ok, pristine.counterexample and pristine.counterexample.describe()

    compiler = sqlcompile.SQLCompiler
    monkeypatch.setattr(compiler, method, mutated(getattr(compiler, method), old, new, sqlcompile))
    report = check()
    assert not report.ok, f"the oracle missed the SQL {name} mutant: {SQL_MUTANTS[name][-1]}"
    counterexample = report.counterexample
    assert counterexample.error is None, counterexample.error
    assert counterexample.expected != counterexample.actual
