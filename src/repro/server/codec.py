"""The wire codec: a value crosses the wire as its declared type's fields.

Nothing here is written per class.  For each Python type an encoder and a
decoder are compiled once, from the type's annotations, and cached:

* a dataclass or NamedTuple is a JSON object of its fields, in declaration
  order; a ``TypedDict`` an object of the keys it was given;
* ``Operator`` and ``Expression`` are tagged families (:data:`FAMILIES`): a
  member is its class's object, tag first -- the public algebra crosses the
  wire, the rewriter's physical operators do not (rewriting is server-side);
* a tuple or list is an array, a ``str``-keyed mapping an object and any
  other mapping a list of ``[key, value]`` pairs; ``Any`` is a JSON scalar.

A decoded plan equals -- and hashes equal to -- the plan the client built,
so it hits the server's shared plan cache.  The decoder is strict: every
field is checked against its declared type, ``bool`` is never an ``int``,
an ``int`` is accepted where ``float`` is declared, ``null`` only where
``Optional`` is, and an absent field takes its default (``null`` for an
``Optional`` one) or raises :class:`~repro.errors.ProtocolError`.  The
server reads requests so; a client reads its server's replies ``trusted``:
the same shapes without the per-value checks (rows stay ``tuple(row)``).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import reprlib
import types
import typing
from typing import Any, Callable, Dict, List, Tuple

from ..algebra import expressions as ex
from ..algebra import operators as op
from ..errors import ProtocolError

__all__ = [
    "FAMILIES",
    "encode",
    "decode",
    "encoder",
    "decoder",
    "is_optional",
    "plan_to_json",
    "plan_from_json",
    "expression_to_json",
    "expression_from_json",
]

Codec = Callable[[Any], Any]

#: Family base -> (tag key, what a tag names, tag -> member class).
FAMILIES: Dict[type, Tuple[str, str, Dict[str, type]]] = {
    op.Operator: ("op", "plan operator", {
        "relation": op.RelationAccess, "constant": op.ConstantRelation,
        "selection": op.Selection, "projection": op.Projection, "rename": op.Rename,
        "join": op.Join, "union": op.Union, "difference": op.Difference,
        "aggregation": op.Aggregation, "distinct": op.Distinct,
    }),
    ex.Expression: ("e", "expression kind", {
        "attr": ex.Attribute, "lit": ex.Literal, "cmp": ex.Comparison, "bool": ex.BooleanOp,
        "not": ex.Not, "arith": ex.Arithmetic, "call": ex.FunctionCall, "isnull": ex.IsNull,
    }),
}

_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
_ABSENT = object()


def _same(value: Any) -> Any:
    return value


def _none() -> None:
    return None


def _or_none(codec: Codec) -> Codec:
    """``codec`` of ``X`` as the codec of ``Optional[X]``."""
    return codec if codec is _same else lambda value: None if value is None else codec(value)


def _refuse(expected: str, payload: Any) -> ProtocolError:
    return ProtocolError(f"expected {expected}, got {reprlib.repr(payload)}")


def _optional(kind: Any) -> Any:
    """``X`` for ``Optional[X]``, else ``None``."""
    members = typing.get_args(kind)
    if typing.get_origin(kind) in (typing.Union, types.UnionType) and len(members) == 2:
        return members[members[0] is type(None)] if type(None) in members else None
    return None


def is_optional(kind: Any) -> bool:
    """Whether ``kind`` admits ``None`` (a field of that type may be absent)."""
    return _optional(kind) is not None


def _fields(cls: Any) -> List[Tuple[str, Any, Any]]:
    """``(name, type, default)`` per field, in declaration order.

    The default is a factory, or ``_ABSENT`` where a payload must carry the
    field; an ``Optional`` field without one defaults to ``None``.
    """
    hints = typing.get_type_hints(cls)
    if dataclasses.is_dataclass(cls):
        declared = [
            (field.name, field.default_factory
             if field.default_factory is not dataclasses.MISSING
             else _ABSENT if field.default is dataclasses.MISSING
             else lambda value=field.default: value)
            for field in dataclasses.fields(cls)
        ]
    else:  # a NamedTuple
        defaults = cls._field_defaults
        declared = [
            (name, (lambda value=defaults[name]: value) if name in defaults else _ABSENT)
            for name in cls._fields
        ]
    return [
        (name, hints[name], _none if default is _ABSENT and is_optional(hints[name]) else default)
        for name, default in declared
    ]


def _shape(kind: Any) -> Tuple[str, Any]:
    """What the codec does with ``kind``: ``(shape, arguments)``."""
    if kind in FAMILIES:
        return "family", FAMILIES[kind]
    if _optional(kind) is not None:
        return "optional", _optional(kind)
    if kind is Any or kind in (str, int, float, bool):
        return "scalar", kind
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        return "sequence", (origin, args[0])
    if origin is tuple:
        return "tuple", args
    if origin in (dict, collections.abc.Mapping):
        return ("object" if args[0] is str else "pairs"), args
    if typing.is_typeddict(kind):
        return "keys", typing.get_type_hints(kind)
    if dataclasses.is_dataclass(kind) or (isinstance(kind, type) and hasattr(kind, "_fields")):
        return "record", kind
    raise TypeError(f"no wire form for {kind!r}")


def _unknown_keys(kind: Any, value: Any, codecs: Dict[str, Codec]) -> None:
    unknown = [name for name in value if name not in codecs]
    if unknown:
        raise ProtocolError(
            f"{kind.__name__} has no key(s) {sorted(unknown)}; it carries {list(codecs)}"
        )


# -- encoding -------------------------------------------------------------------------------------

_ENCODERS: Dict[Any, Codec] = {}


def encoder(kind: Any) -> Codec:
    """How a value of ``kind`` becomes JSON (compiled once per type)."""
    return _ENCODERS.get(kind) or _ENCODERS.setdefault(kind, _compile_encoder(kind))


def encode(kind: Any, value: Any) -> Any:
    return encoder(kind)(value)


def _compile_encoder(kind: Any) -> Codec:
    shape, args = _shape(kind)
    if shape == "family":
        key, label, members = args
        by_class: Dict[type, Codec] = {}

        def encode_member(value: Any) -> Any:
            member = by_class.get(type(value))
            if member is None:
                raise ProtocolError(
                    f"{type(value).__name__} is not wire-encodable: a {label} is one of "
                    f"{sorted(members)} (rewriting happens server-side)"
                )
            return member(value)

        _ENCODERS[kind] = encode_member  # before the members: they name the family again
        by_class.update((cls, _record_encoder(cls, {key: tag})) for tag, cls in members.items())
        return encode_member
    if shape == "scalar":
        return _same
    if shape == "optional":
        return _or_none(encoder(args))
    if shape == "record":
        return _record_encoder(kind, {})
    if shape == "keys":
        codecs = {name: encoder(item) for name, item in args.items()}

        def encode_keys(value: Any) -> Dict[str, Any]:
            _unknown_keys(kind, value, codecs)
            return {name: codecs[name](item) for name, item in value.items()}

        return encode_keys
    if shape == "pairs":
        key, item = map(encoder, args)
        return lambda value: [[key(k), item(v)] for k, v in value.items()]
    if shape == "object":
        item = encoder(args[1])
        return lambda value: {name: item(v) for name, v in value.items()}
    codecs = [encoder(item) for item in ([args[1]] if shape == "sequence" else args)]
    if all(codec is _same for codec in codecs):
        return list
    if shape == "sequence":
        (item,) = codecs
        return lambda value: [item(element) for element in value]
    return lambda value: [codec(element) for codec, element in zip(codecs, value)]


def _record_encoder(cls: Any, head: Dict[str, str]) -> Codec:
    fields = [(name, encoder(kind)) for name, kind, _default in _fields(cls)]

    def encode_record(value: Any) -> Dict[str, Any]:
        payload = dict(head)
        for name, codec in fields:
            payload[name] = codec(getattr(value, name))
        return payload

    return encode_record


# -- decoding -------------------------------------------------------------------------------------

_DECODERS: Dict[Tuple[Any, bool], Codec] = {}


def decoder(kind: Any, trusted: bool = False) -> Codec:
    """How JSON becomes a value of ``kind``: strict, or ``trusted`` (compiled once per type)."""
    key = (kind, trusted)
    return _DECODERS.get(key) or _DECODERS.setdefault(key, _compile_decoder(kind, trusted))


def decode(kind: Any, payload: Any, trusted: bool = False) -> Any:
    return decoder(kind, trusted)(payload)


def _checked(kinds: Any, what: str, build: Codec, trusted: bool) -> Codec:
    """``build`` behind a check that the payload's JSON type is in ``kinds`` (unless trusted)."""
    if trusted:
        return build

    def check(payload: Any) -> Any:
        if type(payload) not in kinds:
            raise _refuse(what, payload)
        return build(payload)

    return check


def _compile_decoder(kind: Any, trusted: bool) -> Codec:
    shape, args = _shape(kind)
    if shape == "family":
        key, label, members = args
        by_tag: Dict[str, Codec] = {}

        def decode_member(payload: Any) -> Any:
            tag = payload.get(key) if type(payload) is dict else None
            member = by_tag.get(tag) if type(tag) is str else None
            if member is None:
                if tag is None:
                    raise ProtocolError(f"malformed {label} payload: {reprlib.repr(payload)}")
                raise ProtocolError(f"unknown {label} {reprlib.repr(tag)}")
            return member(payload)

        _DECODERS[kind, trusted] = decode_member  # before the members: they name the family again
        by_tag.update((tag, _record_decoder(cls, trusted)) for tag, cls in members.items())
        return decode_member
    if shape == "scalar":
        if kind is Any:
            return _checked(_JSON_SCALARS, "a JSON scalar", _same, trusted)
        if kind is float:
            return _checked((int, float), "a number", float, trusted)
        return _checked((kind,), kind.__name__, _same, trusted)
    if shape == "optional":
        return _or_none(decoder(args, trusted))
    if shape == "record":
        return _checked((dict,), f"a {kind.__name__}", _record_decoder(kind, trusted), trusted)
    if shape == "keys":
        codecs = {name: decoder(item, trusted) for name, item in args.items()}

        def decode_keys(payload: Dict[str, Any]) -> Dict[str, Any]:
            if not trusted:  # a trusted reply is an ``ok`` frame: ``type`` and ``id`` too
                _unknown_keys(kind, payload, codecs)
            return {name: codecs[name](item) for name, item in payload.items() if name in codecs}

        return _checked((dict,), f"a {kind.__name__} object", decode_keys, trusted)
    if shape == "object":
        item = decoder(args[1], trusted)
        build: Codec = lambda payload: {name: item(value) for name, value in payload.items()}
        return _checked((dict,), "an object", build, trusted)
    if shape == "pairs":
        pair = decoder(Tuple[args[0], args[1]], trusted)
        build = lambda pairs: dict(map(pair, pairs))
        return _checked((list,), "[key, value] pairs", build, trusted)
    if shape == "sequence":
        container, item = args
        codec = decoder(item, trusted)
        build = container if codec is _same else lambda payload: container(map(codec, payload))
        return _checked((list,), "a list", build, trusted)
    codecs = [decoder(item, trusted) for item in args]

    def build_tuple(payload: List[Any]) -> Tuple[Any, ...]:
        if len(payload) != len(codecs):
            raise _refuse(f"{len(codecs)} elements", payload)
        return tuple(codec(element) for codec, element in zip(codecs, payload))

    return _checked((list,), "a list", build_tuple, trusted)


def _record_decoder(cls: Any, trusted: bool) -> Codec:
    fields = [(name, decoder(kind, trusted), default) for name, kind, default in _fields(cls)]

    def decode_record(payload: Dict[str, Any]) -> Any:
        values = []
        try:
            for name, codec, default in fields:
                item = payload.get(name, _ABSENT)
                if item is not _ABSENT:
                    values.append(codec(item))
                elif default is _ABSENT:
                    raise ProtocolError(f"{cls.__name__} payload is missing field {name!r}")
                else:
                    values.append(default())
        except ProtocolError as error:
            if item is _ABSENT:
                raise
            raise ProtocolError(f"{cls.__name__}.{name}: {error}") from None
        try:
            return cls(*values)
        except Exception as error:  # noqa: BLE001 - the class's own validation refused the values
            raise ProtocolError(f"malformed {cls.__name__} payload: {error}") from None

    return decode_record


# -- the entry points for plans and expressions ---------------------------------------------------

plan_to_json: Codec = encoder(op.Operator)
plan_from_json: Codec = decoder(op.Operator)
expression_to_json: Codec = encoder(typing.Optional[ex.Expression])
expression_from_json: Codec = decoder(typing.Optional[ex.Expression])
# The families are recursive, so each is compiled here, whole, before any
# thread can reach a half-built one.
for _family in FAMILIES:
    decoder(_family, trusted=True)
del _family
