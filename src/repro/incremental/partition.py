"""Partition-key inference: which output attributes split a plan by its inputs.

Restricting a plan's output to one value of an attribute ``a`` commutes
with the whole plan whenever the selection ``a = v`` can sink to every
leaf: the result for ``v`` is then the plan run over the leaf rows holding
``v`` alone.  Where a selection may sink is the planner's knowledge --
:func:`repro.planner.rules.push_selections` and the
``planner_selection_pushdown`` hooks -- so it is *asked*, not restated:
each operator is probed with marker selections over stand-ins for its
children, and where the markers land is where the attributes went (renamed
through projections and renames, rebound by position under union and
difference, stopped by an aggregate for anything but its grouping).

One transfer is made here that the optimiser does not make: across a join,
a probed attribute also restricts the *other* input through an equality
conjunct naming it (``k = k2``: the rows of the right side that can meet a
left row with ``k = v`` are those with ``k2 = v``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..algebra.expressions import Attribute, Comparison, Literal, and_
from ..algebra.operators import ConstantRelation, Join, Operator, Selection
from ..engine.executor import _split_join_predicate
from ..engine.table import Table
from ..planner.rules import push_selections, split_conjuncts
from ..planner.schema import _infer_schema, _SchemaMemo

if TYPE_CHECKING:
    from ..engine.catalog import Database

__all__ = ["partition_key"]

#: Per plan node: probed root attribute -> the name it has at that node.
Probes = Dict[str, str]


class _Marker:
    """The value a probe compares with; names the root attribute it left from."""

    __slots__ = ("root",)

    def __init__(self, root: str) -> None:
        self.root = root


def partition_key(
    plan: Operator, database: "Database"
) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]]]:
    """The partition key of ``plan`` and, per leaf, the attributes holding it.

    The key is every root output attribute that traces to an attribute of
    *every* leaf (in root schema order; ``()`` when none does -- the plan
    is then one partition).  Leaves are listed in depth-first order, which
    identifies an occurrence even when one :class:`RelationAccess` object
    sits at several places in the plan.
    """
    memo: _SchemaMemo = {}  # one schema derivation per node
    schema = _infer_schema(plan, database, memo)
    leaves: List[Probes] = []
    _trace(plan, {name: name for name in schema or ()}, database, memo, leaves)
    # Two attributes held by the same leaf attributes everywhere (both sides
    # of an equi-join's ``k = k2``) are equal in every output row: keep one.
    traced: Dict[Tuple[str, ...], str] = {}
    for name in schema or ():
        if all(name in leaf for leaf in leaves):
            traced.setdefault(tuple(leaf[name] for leaf in leaves), name)
    key = tuple(traced.values())
    return key, [tuple(leaf[name] for name in key) for leaf in leaves]


def _trace(
    node: Operator,
    probes: Probes,
    database: "Database",
    memo: _SchemaMemo,
    leaves: List[Probes],
) -> None:
    children = node.children()
    if not children:
        leaves.append(probes)
        return
    schemas = [_infer_schema(child, database, memo) for child in children]
    landed: List[Probes] = [{} for _ in children]
    if probes and None not in schemas:
        landed = _sink(node, probes, schemas, database)
        if isinstance(node, Join):
            _transfer(node, schemas, landed)
    for child, below in zip(children, landed):
        _trace(child, below, database, memo, leaves)


def _sink(
    node: Operator,
    probes: Probes,
    schemas: Sequence[Tuple[str, ...]],
    database: "Database",
) -> List[Probes]:
    """Where the planner's push-down puts each probe among ``node``'s children."""
    stubs = [ConstantRelation(schema, ()) for schema in schemas]
    position = {id(stub): index for index, stub in enumerate(stubs)}
    probe = Selection(
        node.with_children(*stubs),
        and_(
            *(
                Comparison("=", Attribute(name), Literal(_Marker(root)))
                for root, name in probes.items()
            )
        ),
    )
    landed: List[Probes] = [{} for _ in stubs]
    for pushed in push_selections(probe, database).walk():
        if isinstance(pushed, Selection) and id(pushed.child) in position:
            below = landed[position[id(pushed.child)]]
            for conjunct in split_conjuncts(pushed.predicate):
                root = _probed_root(conjunct)
                if root is not None:
                    below[root] = conjunct.left.name
    return landed


def _probed_root(conjunct: object) -> Optional[str]:
    """The root attribute a conjunct is the (possibly renamed) probe of."""
    if (
        isinstance(conjunct, Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, Attribute)
        and isinstance(conjunct.right, Literal)
        and isinstance(conjunct.right.value, _Marker)
    ):
        return conjunct.right.value.root
    return None


def _transfer(
    join: Join, schemas: Sequence[Tuple[str, ...]], landed: List[Probes]
) -> None:
    """Carry probes across the attribute equalities the engine's hash join keys on."""
    sides = [Table(side, schema) for side, schema in zip(("left", "right"), schemas)]
    for pair in _split_join_predicate(join.predicate, *sides)[0]:
        names = [schema[index] for schema, index in zip(schemas, pair)]
        for here, there in ((0, 1), (1, 0)):
            for root, name in landed[here].items():
                if name == names[here]:
                    landed[there].setdefault(root, names[there])
