"""The asyncio temporal query server and its wire protocol.

``repro.server`` exposes four layers:

* :mod:`repro.server.protocol` -- length-prefixed JSON framing plus the
  error-frame mapping onto the :mod:`repro.errors` taxonomy;
* :mod:`repro.server.plans` -- the JSON codec for logical plans and scalar
  expressions (what actually crosses the wire);
* :mod:`repro.server.verbs` -- the session verb table, the protocol
  reference: every verb's in-process implementation, argument and reply
  codecs and worker-pool flag, declared once for in-process sessions,
  ``repro://`` sessions and the server's dispatch;
* :mod:`repro.server.core` -- :class:`QueryServer`, the asyncio TCP server
  multiplexing many clients over one in-process session's catalog + plan
  cache (``QueryServer(connect(domain=(0, 24)))``).

Run a server from the command line with ``python -m repro.server``.
"""

from .core import DEFAULT_PORT, QueryServer
from .plans import (
    expression_from_json,
    expression_to_json,
    plan_from_json,
    plan_to_json,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    decode_frame,
    encode_frame,
    error_from_frame,
    error_to_frame,
    read_frame_length,
)

__all__ = [
    "QueryServer",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "read_frame_length",
    "error_to_frame",
    "error_from_frame",
    "plan_to_json",
    "plan_from_json",
    "expression_to_json",
    "expression_from_json",
]
