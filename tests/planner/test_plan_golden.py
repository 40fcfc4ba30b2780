"""The optimized plan and its SQL, pinned byte for byte.

For the ten Employee queries, the nine TPC-BiH queries and the
``adhoc_small`` read chain, ``optimize(REWR(q)).explain_tree()`` and
``compile_plan(...).sql`` are compared against ``plan_golden.json``.  The
planner and the SQL compiler may change how they walk a plan (once per
object or once per path, memoised on ``id()`` or on equality), but not what
they produce.  The golden file was generated before the planner walked
plans as DAGs, from the tree-walking planner and the structurally memoised
SQL compiler.

Regenerate it (after an *intended* change of plan shape or SQL only) with
``PYTHONPATH=src python -m tests.planner.test_plan_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.backends.sqlcompile import compile_plan
from repro.planner import optimize
from repro.rewriter.pipeline import QueryPipeline
from tests.planner.test_shared_subplans import CASES

GOLDEN = Path(__file__).with_name("plan_golden.json")


def _outputs(database, domain, query) -> Dict[str, str]:
    rewritten = QueryPipeline(domain, database=database, optimize=False).rewrite(query)
    plan = optimize(rewritten, database)
    return {"explain": plan.explain_tree(), "sql": compile_plan(plan, database).sql}


@pytest.mark.parametrize("database, domain, query", CASES)
def test_the_optimized_plan_and_its_sql_match_the_golden(database, domain, query, request):
    case = request.node.callspec.id
    assert _outputs(database, domain, query) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    golden = {case.id: _outputs(*case.values) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
