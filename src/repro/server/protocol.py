"""The length-prefixed JSON wire protocol of the temporal query server.

Framing is deliberately minimal: every message is one UTF-8 JSON object
prefixed by a 4-byte big-endian length.  A frame larger than
:data:`MAX_FRAME_BYTES` is rejected with
:class:`~repro.errors.ProtocolError` before any allocation happens -- on
both sides, so neither peer can be ballooned by a corrupt or hostile
length word.

Message flow (client -> server | server -> client)::

    hello                       | welcome {domain, tables, ...}
    query {id, plan, ...}       | result_header {id, name, schema}
                                | row_chunk {id, rows} ...
                                | result_end {id, rows, statistics}
    cancel {id}                 | (the query answers with an error frame,
                                |  code=QueryTimeoutError, cancelled=true)
    <verb> {id, arguments...}   | ok {id, result fields...}

The verbs, their arguments and their result fields are the table in
:mod:`repro.server.verbs` -- the protocol reference.  A value crosses the
wire as its declared type's fields (:mod:`repro.server.codec`), and the
server decodes every request strictly against those types.

Any request may instead be answered by an ``error`` frame carrying the
class name of the server-side failure; :func:`error_to_frame` /
:func:`error_from_frame` map frames onto the :mod:`repro.errors` taxonomy
so the client re-raises the same class (with the ``transient`` flag
preserved) and :class:`~repro.execution.ExecutionPolicy` retry/failover
work unchanged against a remote backend.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    BackendError,
    BackendUnavailableError,
    IncrementalError,
    ParseError,
    PlanError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ResourceLimitError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "read_frame_length",
    "error_to_frame",
    "error_from_frame",
]

#: Bumped on incompatible message changes; exchanged in hello/welcome.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload (length word excluded).
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(message: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message to ``length || json``; bounds-checked."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_bytes:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {max_bytes}-byte bound "
            f"(message type {message.get('type')!r})"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Deserialize one frame payload (the bytes *after* the length word)."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    except RecursionError:
        raise ProtocolError("frame payload nests too deeply to decode") from None
    if not isinstance(message, dict) or type(message.get("type")) is not str:
        raise ProtocolError(f"frame payload is not a typed message: {message!r}")
    return message


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed raw bytes as they arrive; :meth:`next_frame` yields complete
    messages (or ``None`` while a frame is still partial).  Used by the
    synchronous client; the asyncio server reads frames with
    ``readexactly`` instead.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_bytes = max_bytes

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> Optional[Dict[str, Any]]:
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        if length > self._max_bytes:
            raise ProtocolError(
                f"incoming frame of {length} bytes exceeds the "
                f"{self._max_bytes}-byte bound"
            )
        if len(self._buffer) < _LENGTH.size + length:
            return None
        payload = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
        del self._buffer[:_LENGTH.size + length]
        return decode_frame(payload)


def read_frame_length(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Parse and bounds-check a 4-byte length word."""
    if len(header) != _LENGTH.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the {max_bytes}-byte bound"
        )
    return length


# -- error frames ---------------------------------------------------------------------------------

#: Wire code -> exception class.  Codes are the class names of the public
#: taxonomy; the server picks the closest ancestor for subclasses (e.g. the
#: fluent API's FluentError travels as ParseError).
_ERROR_CLASSES: Tuple[type, ...] = (
    BackendUnavailableError,  # before BackendError: most specific first
    QueryTimeoutError,
    ResourceLimitError,
    ProtocolError,
    ParseError,
    IncrementalError,
    PlanError,
    BackendError,
)

_CODE_TO_CLASS = {cls.__name__: cls for cls in _ERROR_CLASSES}


def error_to_frame(
    error: BaseException, request_id: Optional[int] = None, cancelled: bool = False
) -> Dict[str, Any]:
    """Map a server-side exception to an ``error`` frame."""
    code = "BackendError"
    for cls in _ERROR_CLASSES:
        if isinstance(error, cls):
            code = cls.__name__
            break
    frame: Dict[str, Any] = {
        "type": "error",
        "code": code,
        "message": str(error) or type(error).__name__,
        "transient": bool(getattr(error, "transient", False)),
    }
    if request_id is not None:
        frame["id"] = request_id
    if cancelled:
        frame["cancelled"] = True
    return frame


def error_from_frame(frame: Dict[str, Any]) -> ReproError:
    """Rebuild the taxonomy exception an ``error`` frame describes."""
    code = frame.get("code", "BackendError")
    message = frame.get("message", "remote execution failed")
    cls = _CODE_TO_CLASS.get(code, BackendError)
    if cls is BackendError:
        return BackendError(message, transient=bool(frame.get("transient", False)))
    # Per-instance transient override only exists on BackendError; for the
    # rest the class default already matches the server's classification.
    return cls(message)
