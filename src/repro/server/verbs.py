"""The session verb table: everything a client can say, stated once.

The middleware's contract with its clients -- query, explain, check, DML,
views, analyze -- is the :data:`VERBS` table below.  Each :class:`Verb` is
named after its wire frame ``type`` and declares

* ``run(pipeline, **args)`` -- the in-process implementation, a function
  over :class:`~repro.rewriter.pipeline.QueryPipeline`;
* ``args`` and ``result`` -- the JSON codecs of its arguments and its reply;
* ``pooled`` -- whether the server runs it on the worker pool (it executes
  plans or propagates deltas) or inline on the event loop.

The table has three readers and no second statement anywhere:

* an in-process :class:`~repro.api.Session` calls ``VERBS[name].run``
  directly -- no JSON, no hop;
* a ``repro://`` session sends :meth:`Verb.request` and returns
  ``verb.result.decode(reply)`` (:class:`~repro.client.WireTransport`);
* :class:`~repro.server.QueryServer` answers any frame whose ``type`` is in
  the table with :meth:`Verb.serve`.

The one verb that is not request/reply is the streaming :data:`QUERY`: its
frame fields are declared like any verb's arguments, its reply is a
``result_header`` / ``row_chunk`` ... / ``result_end`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..algebra.operators import Operator
from ..conformance.harness import ConformanceReport, Counterexample, check_conformance
from ..errors import FluentError, ProtocolError
from ..execution import ExecutionInfo
from ..incremental import Delta
from ..rewriter.explain import explain_query
from ..rewriter.pipeline import PlanCacheInfo, QueryPipeline
from ..stats import TableStatistics
from .plans import plan_from_json, plan_to_json

__all__ = ["VERBS", "QUERY", "Verb", "Arg", "Codec", "CHECK_OPTIONS"]


class Codec(NamedTuple):
    """How one value crosses the wire: to its JSON form and back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def _reply(
    key: str,
    encode: Callable[[Any], Any] = _same,
    decode: Callable[[Any], Any] = _same,
) -> Codec:
    """A result that travels as the one field ``key`` of the ``ok`` frame."""
    return Codec(lambda value: {key: encode(value)}, lambda reply: decode(reply[key]))


def _record(cls: Any) -> Codec:
    """A NamedTuple result whose fields are the ``ok`` frame's fields."""
    return Codec(cls._asdict, lambda reply: cls(*(reply[field] for field in cls._fields)))


def _rows_to_json(rows: Any) -> List[List[Any]]:
    return [list(row) for row in rows]


def _rows_from_json(rows: Any) -> List[Tuple[Any, ...]]:
    return [tuple(row) for row in rows]


def _counts_to_json(counts: Mapping[Tuple[Any, ...], Any]) -> List[Any]:
    return [[list(row), count] for row, count in counts.items()]


def _counts_from_json(payload: List[Any]) -> Dict[Tuple[Any, ...], Any]:
    return {tuple(row): count for row, count in payload}


PLAIN = Codec(_same, _same)
FLAG = Codec(bool, bool)
NAMES = Codec(list, tuple)
PLAN = Codec(plan_to_json, plan_from_json)
#: Rows are JSON arrays on the wire and tuples everywhere else.
ROWS = Codec(_rows_to_json, _rows_from_json)
NOTHING = Codec(lambda _none: {}, lambda _reply: None)


# -- check: options and report --------------------------------------------------------------------

#: The keywords of :func:`repro.conformance.check_conformance` a ``check``
#: may carry over the wire (the JSON-able subset; in process any keyword
#: passes through).
CHECK_OPTIONS = (
    "backends",
    "optimize_modes",
    "points",
    "max_points",
    "minimize",
    "shrink_budget",
)


def _check_options(error: type) -> Callable[[Mapping[str, Any]], Dict[str, Any]]:
    def validate(options: Mapping[str, Any]) -> Dict[str, Any]:
        unknown = set(options) - set(CHECK_OPTIONS)
        if unknown:
            raise error(
                f"remote check does not support option(s) {sorted(unknown)}; "
                f"supported: {list(CHECK_OPTIONS)}"
            )
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in options.items()
        }

    return validate


#: A caller asking for more than the wire carries made a malformed call; a
#: frame doing so is a malformed frame.
OPTIONS = Codec(_check_options(FluentError), _check_options(ProtocolError))


def _report_to_json(report: ConformanceReport) -> Dict[str, Any]:
    # The fields of the two dataclasses are the wire fields, in order.
    witness = report.counterexample
    return {
        **vars(report),
        "points": list(report.points),
        "configurations": [list(pair) for pair in report.configurations],
        "counterexample": witness
        and {
            **vars(witness),
            "query": plan_to_json(witness.query),
            "tables": {name: _rows_to_json(rows) for name, rows in witness.tables.items()},
            "expected": _counts_to_json(witness.expected),
            "actual": _counts_to_json(witness.actual),
        },
    }


def _report_from_json(payload: Dict[str, Any]) -> ConformanceReport:
    raw = payload.get("counterexample")
    return ConformanceReport(
        payload["checks"],
        tuple(payload["points"]),
        tuple((backend, optimize) for backend, optimize in payload["configurations"]),
        raw
        and Counterexample(
            **{
                **raw,
                "query": plan_from_json(raw["query"]),
                "tables": {name: _rows_from_json(rows) for name, rows in raw["tables"].items()},
                "expected": _counts_from_json(raw["expected"]),
                "actual": _counts_from_json(raw["actual"]),
            }
        ),
    )


def _check(
    pipeline: QueryPipeline, plan: Operator, options: Optional[Mapping[str, Any]] = None
) -> ConformanceReport:
    """Conformance of one query under the pipeline's *own* rewriter settings."""
    keywords = {
        "rewriter_cls": pipeline.rewriter_cls,
        "coalesce": pipeline.coalesce,
        "use_temporal_aggregate": pipeline.use_temporal_aggregate,
        **(options or {}),
    }
    return check_conformance(plan, pipeline.database, pipeline.domain, **keywords)


# -- views ----------------------------------------------------------------------------------------


def _deltas_to_json(deltas: Any) -> List[Dict[str, Any]]:
    return [
        {"relation": delta.relation, "entries": _counts_to_json(delta.entries)}
        for delta in deltas
    ]


def _deltas_from_json(payload: Any) -> List[Delta]:
    if not isinstance(payload, list):
        raise ProtocolError("view_apply deltas must be a list")
    deltas = []
    for item in payload:
        if not isinstance(item, dict) or "relation" not in item:
            raise ProtocolError(f"malformed delta payload: {item!r}")
        entries = [(tuple(row), int(weight)) for row, weight in item.get("entries", ())]
        deltas.append(Delta(item["relation"], entries))
    return deltas


def _describe_view(view: Any, state: bool = False) -> Dict[str, Any]:
    """A view's descriptor; ``state`` adds what changes under DML and DDL."""
    described = {"name": view.name, "schema": list(view.schema), "rows": len(view)}
    if state:
        described["stale"] = view.stale
    described["base_relations"] = sorted(view.base_relations)
    if state:
        described["counters"] = dict(view.counters)
    return described


def _view_info(pipeline: QueryPipeline, name: Optional[str] = None) -> Any:
    """Which views exist (no ``name``), or one of them."""
    return pipeline.view_names() if name is None else pipeline.view(name)


def _view_rows(pipeline: QueryPipeline, name: str) -> Tuple[Tuple[str, ...], List[Any]]:
    view = pipeline.view(name)
    return view.schema, view.rows()


def _view_apply(pipeline: QueryPipeline, name: str, deltas: Any) -> Tuple[int, Dict[str, int]]:
    view = pipeline.view(name)
    counters: Dict[str, int] = {}
    view.apply(deltas, counters)
    return len(view), counters


# -- the table ------------------------------------------------------------------------------------


class Arg(NamedTuple):
    """One named argument of a verb = one field of its request frame."""

    name: str
    codec: Codec = PLAIN
    #: A frame may omit an optional field (or send ``null``); ``run``'s own
    #: default then applies.
    required: bool = True


@dataclass(frozen=True)
class Verb:
    """One entry of the session surface; see the module docstring."""

    name: str
    run: Callable[..., Any]
    args: Tuple[Arg, ...] = ()
    result: Codec = NOTHING
    pooled: bool = False

    def request(self, args: Mapping[str, Any]) -> Dict[str, Any]:
        """The request frame of one call, fields in declaration order."""
        frame: Dict[str, Any] = {"type": self.name}
        for arg in self.args:
            if arg.name in args:
                frame[arg.name] = arg.codec.encode(args[arg.name])
        return frame

    def arguments(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        """Decode (and so validate) the arguments a request frame carries."""
        args = {}
        for arg in self.args:
            value = frame.get(arg.name)
            if value is not None:
                args[arg.name] = arg.codec.decode(value)
            elif arg.required:
                raise ProtocolError(f"{self.name} frame lacks its {arg.name!r} field")
        return args

    def serve(self, pipeline: QueryPipeline, frame: Mapping[str, Any]) -> Dict[str, Any]:
        """Answer one request frame: the payload of its ``ok`` reply."""
        return self.result.encode(self.run(pipeline, **self.arguments(frame)))


_NAME = Arg("name")
_ANY_NAME = Arg("name", required=False)
_ROWS = Arg("rows", ROWS)
_PLAN = Arg("plan", PLAN)
_FINAL_COALESCE = Arg("final_coalesce", FLAG, required=False)

# fmt: off
VERBS: Dict[str, Verb] = {verb.name: verb for verb in (
    Verb("ping", lambda pipeline: True, result=Codec(lambda _true: {}, lambda _reply: True)),
    Verb("tables", lambda pipeline: list(pipeline.database.names()), result=_reply("tables")),
    Verb("load", QueryPipeline.load_table,
         (_NAME, Arg("schema", NAMES), _ROWS, Arg("period", NAMES, required=False))),
    Verb("insert", QueryPipeline.insert, (_NAME, _ROWS), pooled=True),
    Verb("delete", QueryPipeline.delete, (_NAME, _ROWS), pooled=True),
    Verb("analyze", lambda pipeline, name=None: pipeline.database.analyze(name), (_ANY_NAME,),
         _reply("statistics",
                lambda collected: {name: stats.to_dict() for name, stats in collected.items()},
                lambda sent: {name: TableStatistics.from_dict(raw) for name, raw in sent.items()}),
         pooled=True),
    Verb("explain", explain_query, (_PLAN, _FINAL_COALESCE), _reply("text"), pooled=True),
    Verb("check", _check, (_PLAN, Arg("options", OPTIONS, required=False)),
         _reply("report", _report_to_json, _report_from_json), pooled=True),
    Verb("cache_info", QueryPipeline.cache_info, result=_record(PlanCacheInfo)),
    Verb("clear_cache", QueryPipeline.clear_plan_cache),
    Verb("execution_info", QueryPipeline.execution_info, result=_record(ExecutionInfo)),
    # A view crosses the wire as its descriptor, which the client wraps in a
    # proxy over the view verbs; in process the view object itself is handed out.
    Verb("materialize",
         lambda pipeline, name, plan, final_coalesce=False:
             pipeline.materialize(plan, name, final_coalesce),
         (_NAME, _PLAN, _FINAL_COALESCE), Codec(_describe_view, _same), pooled=True),
    Verb("view_info", _view_info, (_ANY_NAME,),
         Codec(lambda result: {"views": list(result)} if isinstance(result, tuple)
               else _describe_view(result, state=True),
               lambda reply: tuple(reply["views"]) if "views" in reply else reply)),
    Verb("view_rows", _view_rows, (_NAME,),
         Codec(lambda result: {"schema": list(result[0]), "rows": _rows_to_json(result[1])},
               lambda reply: (tuple(reply["schema"]), _rows_from_json(reply["rows"])))),
    Verb("view_apply", _view_apply,
         (_NAME, Arg("deltas", Codec(_deltas_to_json, _deltas_from_json))),
         Codec(lambda result: {"rows": result[0], "counters": result[1]},
               lambda reply: (int(reply["rows"]), reply.get("counters", {}))),
         pooled=True),
    Verb("view_verify", lambda pipeline, name: pipeline.view(name).verify(), (_NAME,),
         _reply("ok", bool, bool), pooled=True),
    Verb("drop_view", QueryPipeline.drop_view, (_NAME,)),
)}
# fmt: on


# -- the streaming query frame --------------------------------------------------------------------


def _checked(name: str, accepts: Callable[[Any], bool], expected: str) -> Arg:
    """An optional field sent as is and checked on arrival (frames may be hostile)."""

    def decode(value: Any) -> Any:
        if not accepts(value):
            raise ProtocolError(f"query {name} must be {expected}, got {value!r}")
        return value

    return Arg(name, Codec(_same, decode), required=False)


#: Not in :data:`VERBS`: the server streams the reply instead of calling
#: :meth:`Verb.serve`, and hands ``run`` limits built from the timeout and
#: row-budget fields.  ``backend`` overrides the server pipeline's for this
#: one query; ``timeout_seconds`` and ``max_result_rows``
#: are the client policy's remaining limits (the server caps the former);
#: ``chunk_rows`` overrides the server's rows-per-``row_chunk`` -- with a
#: step <= 0 the server would stream no rows at all yet still announce them
#: in ``result_end``.
QUERY = Verb("query", QueryPipeline.execute_limited, (
    _PLAN,
    _FINAL_COALESCE,
    _checked("backend", lambda name: isinstance(name, str), "a backend name"),
    Arg("timeout_seconds", Codec(_same, float), required=False),
    Arg("max_result_rows", required=False),
    _checked("chunk_rows", lambda n: type(n) is int and n > 0, "a positive integer"),
))
