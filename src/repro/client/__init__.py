"""The ``repro://`` client: the wire transport of :class:`~repro.api.Session`.

``repro.connect("repro://host:port")`` returns the same
:class:`~repro.api.Session` class as an in-process ``connect(domain=...)``;
what differs is the transport underneath.  :class:`WireTransport` turns each
verb of :mod:`repro.server.verbs` into one request/reply exchange (and
``query`` into a streamed one) on a reconnecting :class:`RemoteConnection`;
:class:`RemoteView` is the handle ``session.materialize()`` / ``session.view()``
return over the wire, a proxy over the ``view_*`` verbs.
"""

from .connection import RemoteConnection
from .transport import RemoteView, WireTransport

__all__ = ["WireTransport", "RemoteView", "RemoteConnection"]
