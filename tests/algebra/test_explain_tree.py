"""Pinned output of the plan pretty-printer (``Operator.explain_tree``).

Every operator class -- the core RA^agg algebra *and* the rewriter's
physical temporal operators -- must render as one stable line, and trees
must use the box-drawing guides exactly as pinned here.  The fluent API's
``explain()`` and ``QueryPipeline.explain`` both build on this
rendering, so changes to it are API changes.
"""

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.operators import (
    AggregateSpec,
    Aggregation,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from repro.rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)

WORKS = RelationAccess("works")
ASSIGN = RelationAccess("assign")


class TestLabels:
    """One stable single-line label per operator class."""

    def test_every_operator_class_has_a_compact_label(self):
        cases = {
            WORKS: "Relation(works)",
            RelationAccess("works", alias="w"): "Relation(works AS w)",
            ConstantRelation(("x",), ((1,),)): "Constant(['x'], 1 rows)",
            Selection(WORKS, Comparison("=", attr("skill"), lit("SP"))): (
                "Selection((skill = 'SP'))"
            ),
            Projection(WORKS, ((attr("name"), "who"),)): "Projection(name AS who)",
            Rename(WORKS, (("name", "who"),)): "Rename(name->who)",
            Join(WORKS, ASSIGN, Comparison("=", attr("skill"), attr("req_skill"))): (
                "Join((skill = req_skill))"
            ),
            Union(WORKS, ASSIGN): "UnionAll",
            Difference(WORKS, ASSIGN): "ExceptAll",
            Aggregation(WORKS, ("skill",), (AggregateSpec("count", None, "cnt"),)): (
                "Aggregation(group by skill; count(*) AS cnt)"
            ),
            Distinct(WORKS): "Distinct",
            CoalesceOperator(WORKS): "Coalesce(period=t_begin..t_end)",
            SplitOperator(WORKS, ASSIGN, ("skill",)): "Split(group by skill)",
            SplitOperator(WORKS, ASSIGN, ()): "Split(group by ())",
            TemporalAggregateOperator(
                WORKS, ("skill",), (AggregateSpec("sum", attr("pay"), "total"),)
            ): "TemporalAggregate(group by skill; sum(pay) AS total)",
        }
        for operator, expected in cases.items():
            assert operator.explain_label() == expected
            # A leaf-free label: never recurses into children.
            assert "Relation(works)" not in expected or operator is WORKS or (
                isinstance(operator, RelationAccess)
            )

    def test_physical_operator_repr_does_not_recurse(self):
        deep = CoalesceOperator(Selection(WORKS, Comparison("=", attr("a"), lit(1))))
        assert repr(deep) == "Coalesce(period=t_begin..t_end)"


class TestTreeRendering:
    def test_single_node(self):
        assert WORKS.explain_tree() == "Relation(works)"

    def test_unary_chain(self):
        plan = Aggregation(
            Selection(WORKS, Comparison("=", attr("skill"), lit("SP"))),
            (),
            (AggregateSpec("count", None, "cnt"),),
        )
        assert plan.explain_tree() == (
            "Aggregation(group by (); count(*) AS cnt)\n"
            "└─ Selection((skill = 'SP'))\n"
            "   └─ Relation(works)"
        )

    def test_binary_tree_guides(self):
        plan = Difference(
            Rename(
                Projection.of_attributes(ASSIGN, "req_skill"),
                (("req_skill", "skill"),),
            ),
            Projection.of_attributes(WORKS, "skill"),
        )
        assert plan.explain_tree() == (
            "ExceptAll\n"
            "├─ Rename(req_skill->skill)\n"
            "│  └─ Projection(req_skill AS req_skill)\n"
            "│     └─ Relation(assign)\n"
            "└─ Projection(skill AS skill)\n"
            "   └─ Relation(works)"
        )

    def test_physical_operators_in_a_tree(self):
        plan = CoalesceOperator(
            SplitOperator(
                Projection.of_attributes(WORKS, "skill"),
                Projection.of_attributes(ASSIGN, "req_skill"),
                ("skill",),
            )
        )
        assert plan.explain_tree() == (
            "Coalesce(period=t_begin..t_end)\n"
            "└─ Split(group by skill)\n"
            "   ├─ Projection(skill AS skill)\n"
            "   │  └─ Relation(works)\n"
            "   └─ Projection(req_skill AS req_skill)\n"
            "      └─ Relation(assign)"
        )

    def test_every_rewritten_plan_renders_one_line_per_node(self):
        from repro.datasets.running_example import load_running_example, query_onduty

        pipeline = load_running_example()
        plan = pipeline.rewrite(query_onduty())
        rendered = pipeline.explain(query_onduty())
        assert rendered == plan.explain_tree()
        assert len(rendered.splitlines()) == sum(1 for _ in plan.walk())


class TestAnnotations:
    """Per-node suffixes (``explain()``'s strategy and actual-rows report)."""

    def test_annotation_suffixes_attach_to_their_nodes(self):
        join = Join(WORKS, ASSIGN, Comparison("=", attr("skill"), attr("req_skill")))
        plan = Selection(join, Comparison("=", attr("skill"), lit("SP")))
        annotations = {
            id(join): "[strategy=hash actual_rows=3]",
            id(plan): "[actual_rows=1]",
        }
        assert plan.explain_tree(annotations) == (
            "Selection((skill = 'SP')) [actual_rows=1]\n"
            "└─ Join((skill = req_skill)) [strategy=hash actual_rows=3]\n"
            "   ├─ Relation(works)\n"
            "   └─ Relation(assign)"
        )

    def test_annotated_trees_keep_one_line_per_node(self):
        join = Join(WORKS, ASSIGN, Comparison("=", attr("skill"), attr("req_skill")))
        rendered = join.explain_tree({id(join): "[actual_rows=3]"})
        assert len(rendered.splitlines()) == sum(1 for _ in join.walk())

    def test_session_explain_annotates_every_join_node(self):
        from repro.api import connect

        session = connect(domain=(0, 24))
        session.load(
            "works", ["name", "skill"], [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)]
        )
        session.load("assign", ["req_skill", "proj"], [("SP", "p1", 0, 20)])
        text = (
            session.table("works")
            .join(session.table("assign"), on="skill = req_skill")
            .explain()
        )
        assert "executed plan:" in text
        executed = text.split("executed plan:", 1)[1]
        join_lines = [
            line for line in executed.splitlines() if "Join(" in line
        ]
        assert join_lines
        for line in join_lines:
            assert "strategy=" in line
            assert "actual_rows=" in line
            assert "estimated_rows=" not in line
        # Non-join nodes carry the cardinality field too.
        relation_lines = [
            line for line in executed.splitlines() if "Relation(" in line
        ]
        assert relation_lines
        for line in relation_lines:
            assert "actual_rows=" in line
