"""The ablation's baseline rewriters, pinned plan for plan.

For the twenty ``plan_golden`` cases (the ten Employee queries, the nine
TPC-BiH queries and the ``adhoc_small`` read chain), REWR's
``explain_tree()`` under :class:`PerOperatorCoalesceRewriter` and
:class:`SplitThenAggregateRewriter` is compared against
``baseline_golden.json``.  The file was generated when the two variants were
still options of ``SnapshotRewriter`` (``coalesce="per-operator"`` and
``use_temporal_aggregate=False``), so the baselines the ablation measures
are the plans it always measured: in particular the per-operator variant
ends in the root operator's own coalesce, not in a second one on top.

Regenerate it (after an *intended* change of REWR only) with
``PYTHONPATH=src python -m tests.rewriter.test_baseline_golden``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.baselines import PerOperatorCoalesceRewriter, SplitThenAggregateRewriter
from repro.rewriter import CoalesceOperator
from tests.planner.test_shared_subplans import CASES

GOLDEN = Path(__file__).with_name("baseline_golden.json")

BASELINES = {
    "per_operator": PerOperatorCoalesceRewriter,
    "split_then_aggregate": SplitThenAggregateRewriter,
}


def _outputs(database, domain, query) -> Dict[str, str]:
    return {
        name: rewriter(database, domain).rewrite(query).explain_tree()
        for name, rewriter in BASELINES.items()
    }


@pytest.mark.parametrize("database, domain, query", CASES)
def test_the_baseline_plans_match_the_golden(database, domain, query, request):
    case = request.node.callspec.id
    assert _outputs(database, domain, query) == json.loads(GOLDEN.read_text())[case]
    per_operator = PerOperatorCoalesceRewriter(database, domain).rewrite(query)
    assert isinstance(per_operator, CoalesceOperator)
    assert not isinstance(per_operator.child, CoalesceOperator)


if __name__ == "__main__":
    golden = {case.id: _outputs(*case.values) for case in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
