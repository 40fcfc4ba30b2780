"""The session verb table: everything a client can say, stated once.

The middleware's contract with its clients -- query, explain, check, DML,
views, analyze -- is the :data:`VERBS` table below.  Each :class:`Verb` is
named after its wire frame ``type`` and declares

* ``run(pipeline, **args)`` -- the in-process implementation, a function
  over :class:`~repro.rewriter.pipeline.QueryPipeline`;
* ``args`` and ``result`` -- the declared Python *types* of its arguments
  and of what ``run`` returns;
* ``pooled`` -- whether the server runs it on the worker pool (it executes
  plans or propagates deltas) or inline on the event loop.

A value crosses the wire as its declared type's fields: the frames are
derived from those types by :mod:`repro.server.codec`, and the server
decodes every request strictly against them (a ``"schema": "ab"`` or a
weight of ``2.5`` is a :class:`~repro.errors.ProtocolError`, not two
columns or a weight of 2).

The table has three readers and no second statement anywhere:

* an in-process :class:`~repro.api.Session` calls ``VERBS[name].run``
  directly -- no JSON, no hop;
* a ``repro://`` session sends :meth:`Verb.request` and returns
  :meth:`Verb.decode_result` of the reply (:class:`~repro.client.WireTransport`);
* :class:`~repro.server.QueryServer` answers any frame whose ``type`` is in
  the table with :meth:`Verb.serve`.

The one verb that is not request/reply is the streaming :data:`QUERY`: its
frame fields are declared like any verb's arguments, its reply is a
``result_header`` / ``row_chunk`` ... / ``result_end`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, TypedDict

from ..algebra.operators import Operator
from ..conformance.harness import ConformanceReport, check_conformance
from ..errors import FluentError, ProtocolError
from ..execution import ExecutionInfo
from ..incremental import Delta
from ..rewriter.explain import explain_query
from ..rewriter.pipeline import PlanCacheInfo, QueryPipeline
from ..stats import TableStatistics
from .codec import decode, decoder, encode, is_optional

__all__ = ["VERBS", "QUERY", "Verb", "Arg", "CheckOptions"]

Row = Tuple[Any, ...]


class CheckOptions(TypedDict, total=False):
    """The keywords of :func:`repro.conformance.check_conformance` a ``check``
    may carry over the wire (the JSON-able subset; in process any keyword
    passes through)."""

    backends: Tuple[str, ...]
    optimize_modes: Tuple[bool, ...]
    points: Optional[Tuple[int, ...]]
    max_points: Optional[int]
    minimize: bool
    shrink_budget: int


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


class ViewRows(NamedTuple):
    """A view's contents: the ``view_rows`` reply."""

    schema: Tuple[str, ...]
    rows: List[Row]


class ViewApplied(NamedTuple):
    """A view's size and the counters one ``apply`` bumped: the ``view_apply`` reply."""

    rows: int
    counters: Dict[str, int]


class ViewInfo(TypedDict, total=False):
    """The names of the views, or one view's descriptor (which the client wraps in a proxy)."""

    views: Tuple[str, ...]
    name: str
    schema: Tuple[str, ...]
    rows: int
    stale: bool
    base_relations: Tuple[str, ...]
    counters: Dict[str, int]


def _describe_view(view: Any, state: bool = False) -> ViewInfo:
    """A view's descriptor; ``state`` adds what changes under DML and DDL."""
    described = ViewInfo(name=view.name, schema=view.schema, rows=len(view))
    if state:
        described["stale"] = view.stale
    described["base_relations"] = tuple(sorted(view.base_relations))
    if state:
        described["counters"] = dict(view.counters)
    return described


def _view_info(pipeline: QueryPipeline, name: Optional[str] = None) -> ViewInfo:
    """Which views exist (no ``name``), or one of them."""
    if name is None:
        return ViewInfo(views=pipeline.view_names())
    return _describe_view(pipeline.view(name), state=True)


def _view_rows(pipeline: QueryPipeline, name: str) -> ViewRows:
    view = pipeline.view(name)
    return ViewRows(view.schema, view.rows())


def _view_apply(pipeline: QueryPipeline, name: str, deltas: Any) -> ViewApplied:
    view = pipeline.view(name)
    counters: Dict[str, int] = {}
    view.apply(deltas, counters)
    return ViewApplied(len(view), counters)


# -- the table ------------------------------------------------------------------------------------


class Arg(NamedTuple):
    """One named argument of a verb = one field of its request frame."""

    name: str
    type: Any = str

    @property
    def required(self) -> bool:
        """An ``Optional`` field may be absent or ``null``; ``run``'s own default then applies."""
        return not is_optional(self.type)


@dataclass(frozen=True)
class Verb:
    """One entry of the session surface; see the module docstring."""

    name: str
    run: Callable[..., Any]
    args: Tuple[Arg, ...] = ()
    #: The declared type of ``run``'s value; ``None``: the reply carries nothing.
    result: Any = None
    #: The ``ok`` frame field the result travels as; ``None``: its own fields are the frame's.
    field: Optional[str] = None
    pooled: bool = False

    def request(self, args: Mapping[str, Any]) -> Dict[str, Any]:
        """The request frame of one call, fields in declaration order."""
        frame: Dict[str, Any] = {"type": self.name}
        for arg in self.args:
            if arg.name in args:
                try:
                    frame[arg.name] = encode(arg.type, args[arg.name])
                except ProtocolError as error:
                    # A caller asking for more than the wire carries made a malformed call.
                    raise FluentError(
                        f"remote {self.name} does not support the {arg.name} given: {error}"
                    ) from None
        return frame

    def arguments(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        """Decode (and so validate) the arguments a request frame carries."""
        args = {}
        for arg in self.args:
            value = frame.get(arg.name)
            if value is None:
                if arg.required:
                    raise ProtocolError(f"{self.name} frame lacks its {arg.name!r} field")
                continue
            try:
                args[arg.name] = decoder(arg.type)(value)
            except ProtocolError as error:
                raise ProtocolError(f"{self.name} {arg.name}: {error}") from None
            except RecursionError:
                raise ProtocolError(f"{self.name} {arg.name} nests too deeply") from None
        return args

    def serve(self, pipeline: QueryPipeline, frame: Mapping[str, Any]) -> Dict[str, Any]:
        """Answer one request frame: the payload of its ``ok`` reply."""
        return self.encode_result(self.run(pipeline, **self.arguments(frame)))

    def encode_result(self, value: Any) -> Dict[str, Any]:
        """The ``ok`` frame's fields for what ``run`` returned."""
        if self.result is None:
            return {}
        payload = encode(self.result, value)
        return payload if self.field is None else {self.field: payload}

    def decode_result(self, reply: Dict[str, Any]) -> Any:
        """What ``run`` returned, from the ``ok`` frame (trusted: it is the server's)."""
        if self.result is None:
            return None
        return decode(self.result, reply if self.field is None else reply[self.field], trusted=True)


_NAME = Arg("name")
_ANY_NAME = Arg("name", Optional[str])
_ROWS = Arg("rows", List[Row])
_PLAN = Arg("plan", Operator)
_FINAL_COALESCE = Arg("final_coalesce", Optional[bool])

# fmt: off
VERBS: Dict[str, Verb] = {verb.name: verb for verb in (
    Verb("ping", lambda pipeline: None),
    Verb("tables", lambda pipeline: list(pipeline.database.names()), (), List[str], "tables"),
    Verb("load", QueryPipeline.load_table,
         (_NAME, Arg("schema", Tuple[str, ...]), _ROWS, Arg("period", Optional[Tuple[str, str]]))),
    Verb("insert", QueryPipeline.insert, (_NAME, _ROWS), pooled=True),
    Verb("delete", QueryPipeline.delete, (_NAME, _ROWS), pooled=True),
    Verb("analyze", lambda pipeline, name=None: pipeline.database.analyze(name), (_ANY_NAME,),
         Dict[str, TableStatistics], "statistics", pooled=True),
    Verb("explain", explain_query, (_PLAN, _FINAL_COALESCE), str, "text", pooled=True),
    Verb("check", _check, (_PLAN, Arg("options", Optional[CheckOptions])),
         ConformanceReport, "report", pooled=True),
    Verb("cache_info", QueryPipeline.cache_info, result=PlanCacheInfo),
    Verb("clear_cache", QueryPipeline.clear_plan_cache),
    Verb("execution_info", QueryPipeline.execution_info, result=ExecutionInfo),
    Verb("materialize",
         lambda pipeline, name, plan, final_coalesce=False:
             _describe_view(pipeline.materialize(plan, name, final_coalesce)),
         (_NAME, _PLAN, _FINAL_COALESCE), ViewInfo, pooled=True),
    Verb("view_info", _view_info, (_ANY_NAME,), ViewInfo),
    Verb("view_rows", _view_rows, (_NAME,), ViewRows),
    Verb("view_apply", _view_apply, (_NAME, Arg("deltas", List[Delta])), ViewApplied, pooled=True),
    Verb("view_verify", lambda pipeline, name: pipeline.view(name).verify(), (_NAME,),
         bool, "ok", pooled=True),
    Verb("drop_view", QueryPipeline.drop_view, (_NAME,)),
)}
# fmt: on


#: Not in :data:`VERBS`: the server streams the reply instead of calling
#: :meth:`Verb.serve`, and hands ``run`` limits built from the timeout and
#: row-budget fields.  ``backend`` overrides the server pipeline's for this
#: one query; ``timeout_seconds`` and ``max_result_rows``
#: are the client policy's remaining limits (the server caps the former);
#: ``chunk_rows`` overrides the server's rows-per-``row_chunk`` (the server
#: refuses one below 1: it would stream no rows yet announce them all).
QUERY = Verb("query", QueryPipeline.execute_limited, (
    _PLAN,
    _FINAL_COALESCE,
    Arg("backend", Optional[str]),
    Arg("timeout_seconds", Optional[float]),
    Arg("max_result_rows", Optional[int]),
    Arg("chunk_rows", Optional[int]),
))
