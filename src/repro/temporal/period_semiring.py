"""Period semirings ``K^T`` (paper Section 6).

For any commutative semiring K and finite time domain T, the period semiring
``K^T`` has as elements the K-coalesced temporal K-elements; addition and
multiplication are the point-wise operations followed by coalescing, the
zero is the everywhere-zero element and the one maps ``[Tmin, Tmax)`` to
``1_K`` (Definition 6.1).  Theorem 6.2 states that ``K^T`` is again a
semiring, Theorem 7.1 that it inherits a well-defined monus whenever K has
one, and Theorems 6.3 / 7.2 that the timeslice operator ``tau_T`` is a
(m-)semiring homomorphism ``K^T -> K`` -- which is what makes period
K-relations snapshot-reducible.

This module realises the construction as :class:`PeriodSemiring` (a
:class:`~repro.semirings.base.Semiring` whose values are
:class:`~repro.temporal.elements.TemporalElement` instances) and provides the
timeslice homomorphism factory :func:`timeslice_homomorphism`.  All
arithmetic runs on the elements' event-sweep kernel: ``plus``/``times``/
``monus`` are one joint sweep over both operands' endpoints, and results
come back already in (memoised) coalesced normal form, so chains of period
arithmetic never re-normalise.
"""

from __future__ import annotations

from typing import Any

from ..semirings.base import (
    MonusSemiring,
    Semiring,
    SemiringError,
    SemiringHomomorphism,
)
from .elements import TemporalElement
from .intervals import Interval
from .timedomain import TimeDomain

__all__ = ["PeriodSemiring", "timeslice_homomorphism"]


class PeriodSemiring(Semiring):
    """The period semiring ``K^T`` for a base semiring K and time domain T."""

    def __init__(self, base: Semiring, domain: TimeDomain) -> None:
        self.base = base
        self.domain = domain
        self.name = f"{base.name}^T"
        self._zero = TemporalElement.empty(base, domain)
        self._one = TemporalElement.universe(base, domain)

    # -- semiring structure ----------------------------------------------------------

    @property
    def zero(self) -> TemporalElement:
        return self._zero

    @property
    def one(self) -> TemporalElement:
        return self._one

    def plus(self, a: Any, b: Any) -> TemporalElement:
        return self._coerce(a).plus(self._coerce(b))

    def times(self, a: Any, b: Any) -> TemporalElement:
        return self._coerce(a).times(self._coerce(b))

    def is_zero(self, a: Any) -> bool:
        element = self._coerce(a)
        if not element._entries:
            return True
        # Entries hold non-zero values only, but overlapping entries might
        # still sum to 0_K; the (memoised) sweep-based normal form decides.
        return element.coalesce().is_empty()

    def is_member(self, a: Any) -> bool:
        return (
            isinstance(a, TemporalElement)
            and a.semiring == self.base
            and a.domain == self.domain
        )

    # -- monus / natural order (Theorem 7.1) --------------------------------------------

    @property
    def has_monus(self) -> bool:
        return self.base.has_monus

    def natural_leq(self, a: Any, b: Any) -> bool:
        if not isinstance(self.base, MonusSemiring):
            return super().natural_leq(a, b)
        return self._coerce(a).natural_leq(self._coerce(b))

    def monus(self, a: Any, b: Any) -> TemporalElement:
        if not self.base.has_monus:
            raise SemiringError(
                f"base semiring {self.base.name} has no monus; "
                f"{self.name} therefore has none either"
            )
        return self._coerce(a).monus(self._coerce(b))

    # -- construction helpers -----------------------------------------------------------

    def element(self, mapping) -> TemporalElement:
        """Build a (coalesced) element of this semiring from an interval map."""
        return TemporalElement(self.base, self.domain, mapping).coalesce()

    def singleton(self, interval: Interval, value: Any | None = None) -> TemporalElement:
        """Element assigning ``value`` (default ``1_K``) to a single interval."""
        return TemporalElement.singleton(
            self.base, self.domain, interval, value
        ).coalesce()

    def from_int(self, n: int) -> TemporalElement:
        """``n`` copies of the multiplicative identity: ``[Tmin, Tmax) -> n``."""
        if n < 0:
            raise SemiringError("cannot embed a negative integer into a semiring")
        if n == 0:
            return self._zero
        return self.element({Interval(*self.domain.universe()): self.base.from_int(n)})

    def _coerce(self, value: Any) -> TemporalElement:
        if not isinstance(value, TemporalElement):
            raise SemiringError(
                f"{self.name} annotations must be temporal elements, got {value!r}"
            )
        if value.semiring != self.base or value.domain != self.domain:
            raise SemiringError(
                f"temporal element over {value.semiring.name}/{value.domain} used "
                f"in period semiring {self.name} over {self.domain}"
            )
        return value

    # -- identity -----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeriodSemiring)
            and other.base == self.base
            and other.domain == self.domain
        )

    def __hash__(self) -> int:
        return hash((type(self), self.base, self.domain))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<period semiring {self.name} over {self.domain}>"


def timeslice_homomorphism(
    semiring: PeriodSemiring, point: int
) -> SemiringHomomorphism:
    """The timeslice operator ``tau_T`` as a homomorphism ``K^T -> K``.

    Theorem 6.3 (and 7.2 for the monus) of the paper: applying ``tau_T`` to
    every annotation of a period K-relation commutes with query evaluation,
    which is exactly snapshot-reducibility.
    """
    semiring.domain.validate_point(point)
    return SemiringHomomorphism(
        source=semiring,
        target=semiring.base,
        mapping=lambda element: element.at(point),
        name=f"tau_{point}",
    )
