"""Free-standing K-coalescing helpers (paper Section 5.2).

The algorithmic core is the event-sweep kernel behind
:meth:`TemporalElement.coalesce` (one sort of the interval endpoints plus a
running multiset of active annotations, instead of rescanning every
interval per elementary segment); this module
exposes the paper's vocabulary as module-level functions so that callers and
tests can speak in the paper's terms (``CK``, ``CP``, ``CPI``) and adds a
batch helper for coalescing whole annotation dictionaries.  Normal forms
are memoised per element, so batch-coalescing already-coalesced annotations
(e.g. the outputs of period-semiring arithmetic) costs nothing.

The engine's coalesce operator over PERIODENC tables lives with the other
operator algorithms: the scalar sweep in :mod:`repro.engine.sweeps`, the
whole-column kernel in :mod:`repro.engine.kernels`.  Nothing here imports
the engine.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping

from .elements import TemporalElement
from .intervals import Interval

__all__ = [
    "k_coalesce",
    "annotation_changepoints",
    "changepoint_intervals",
    "coalesce_annotations",
]


def k_coalesce(element: TemporalElement) -> TemporalElement:
    """``CK(T)``: the unique K-coalesced normal form of a temporal element."""
    return element.coalesce()


def annotation_changepoints(element: TemporalElement) -> List[int]:
    """``CP(T)``: the annotation changepoints of a temporal element.

    Always contains ``Tmin``; contains every point ``T`` with
    ``tau_{T-1}(T) != tau_T(T)``.
    """
    return element.changepoints()


def changepoint_intervals(element: TemporalElement) -> List[Interval]:
    """``CPI(T)``: maximal intervals between consecutive changepoints.

    The coalesced form maps exactly those of these intervals that carry a
    non-zero annotation to that annotation.
    """
    points = annotation_changepoints(element)
    bounds = points + [element.domain.max_point]
    return [
        Interval(begin, end)
        for begin, end in zip(bounds, bounds[1:])
        if begin < end
    ]


def coalesce_annotations(
    annotations: Mapping[Hashable, TemporalElement],
) -> Dict[Hashable, TemporalElement]:
    """Coalesce every temporal element in a tuple -> element mapping.

    Entries whose coalesced element is empty (annotation ``0_K`` everywhere)
    are dropped, matching the K-relation convention that zero-annotated
    tuples are not in the relation.
    """
    result: Dict[Hashable, TemporalElement] = {}
    for key, element in annotations.items():
        coalesced = element.coalesce()
        if not coalesced.is_empty():
            result[key] = coalesced
    return result
