"""Core semiring abstractions used throughout the library.

The paper models set and multiset relations (and more exotic annotation
domains such as provenance polynomials) uniformly as *K-relations*: relations
in which every tuple is annotated with an element of a commutative semiring
``K`` [Green et al., PODS 2007].  This module defines:

* :class:`Semiring` -- the interface every annotation domain implements,
* natural-order support and the *monus* operation (for m-semirings, which is
  what makes bag/set difference expressible, Section 7.1 of the paper),
* :class:`SemiringHomomorphism` -- structure-preserving maps between
  semirings.  The paper's central correctness argument is that the timeslice
  operator is such a homomorphism (Theorems 6.3 and 7.2).

Semirings are represented as stateless singleton-style objects rather than
classes-of-values: the annotation values themselves are ordinary Python
objects (``bool``, ``int``, ``frozenset`` ...), and the semiring object knows
how to combine them.  This keeps annotations cheap and hashable, which
matters because relations store millions of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

__all__ = [
    "Semiring",
    "MonusSemiring",
    "SemiringHomomorphism",
    "SemiringError",
    "NotNaturallyOrderedError",
]


class SemiringError(Exception):
    """Raised when a semiring operation is used outside its domain."""


class NotNaturallyOrderedError(SemiringError):
    """Raised when a monus is requested for a semiring without one."""


class Semiring(ABC):
    """A commutative semiring ``(K, +, *, 0, 1)``.

    Implementations must guarantee the semiring laws:

    * ``+`` and ``*`` are commutative and associative,
    * ``0`` is neutral for ``+`` and annihilating for ``*``,
    * ``1`` is neutral for ``*``,
    * ``*`` distributes over ``+``.

    The laws are verified by property-based tests in
    ``tests/semirings/test_laws.py`` for every semiring shipped with the
    library (including every derived period semiring ``K^T``).
    """

    #: Short human-readable name, e.g. ``"N"`` or ``"B"``.
    name: str = "K"

    # -- required structure -------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> Any:
        """The additive identity ``0_K``."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The multiplicative identity ``1_K``."""

    @abstractmethod
    def plus(self, a: Any, b: Any) -> Any:
        """Semiring addition ``a +_K b`` (alternative use of tuples)."""

    @abstractmethod
    def times(self, a: Any, b: Any) -> Any:
        """Semiring multiplication ``a *_K b`` (joint use of tuples)."""

    # -- optional structure --------------------------------------------------

    def is_zero(self, a: Any) -> bool:
        """Return True iff ``a`` is the additive identity.

        Tuples annotated with ``0_K`` are by convention *not* in a
        K-relation, so this test decides membership.
        """
        return a == self.zero

    def is_member(self, a: Any) -> bool:
        """Return True iff ``a`` is a member of the semiring's domain.

        Used for input validation at API boundaries; the default accepts
        anything, concrete semirings narrow it.
        """
        return True

    def sum(self, values: Iterable[Any]) -> Any:
        """Fold :meth:`plus` over ``values`` starting from ``0_K``."""
        acc = self.zero
        for value in values:
            acc = self.plus(acc, value)
        return acc

    def product(self, values: Iterable[Any]) -> Any:
        """Fold :meth:`times` over ``values`` starting from ``1_K``."""
        acc = self.one
        for value in values:
            acc = self.times(acc, value)
        return acc

    # -- natural order and monus ---------------------------------------------

    def natural_leq(self, a: Any, b: Any) -> bool:
        """The natural (pre)order ``a <=_K b  iff  exists c: a + c = b``.

        Subclasses of naturally ordered semirings override this with a
        decision procedure.  The default raises because the existential
        cannot be decided generically.
        """
        raise NotNaturallyOrderedError(
            f"semiring {self.name} does not expose a natural order"
        )

    @property
    def has_monus(self) -> bool:
        """True iff the semiring has a well-defined monus (is an m-semiring)."""
        return isinstance(self, MonusSemiring)

    def monus(self, a: Any, b: Any) -> Any:
        """``a -_K b``: the smallest ``c`` with ``a <=_K b + c``.

        Only defined for m-semirings (see :class:`MonusSemiring`).
        """
        raise NotNaturallyOrderedError(
            f"semiring {self.name} has no monus operation"
        )

    # -- conveniences ---------------------------------------------------------

    def pow(self, a: Any, exponent: int) -> Any:
        """``a`` multiplied with itself ``exponent`` times (exponent >= 0)."""
        if exponent < 0:
            raise SemiringError("semiring exponentiation requires exponent >= 0")
        return self.product(a for _ in range(exponent))

    def from_int(self, n: int) -> Any:
        """Embed a non-negative integer as ``1 + 1 + ... + 1`` (n times)."""
        if n < 0:
            raise SemiringError("cannot embed a negative integer into a semiring")
        return self.sum(self.one for _ in range(n))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<semiring {self.name}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class MonusSemiring(Semiring):
    """A naturally ordered semiring with a well-defined monus.

    Following Geerts & Poggi [20] (as used in Section 7.1 of the paper), a
    semiring has a well-defined monus iff (i) its natural order is a partial
    order and (ii) for all ``a, b`` the set ``{c | a <= b + c}`` has a least
    element.  The monus then provides the semantics of bag/set difference
    for K-relations, e.g. truncating subtraction for N and ``a and not b``
    for B.
    """

    @abstractmethod
    def natural_leq(self, a: Any, b: Any) -> bool:
        """Decide the natural order (must be a partial order)."""

    @abstractmethod
    def monus(self, a: Any, b: Any) -> Any:
        """Return the least ``c`` such that ``a <=_K b +_K c``."""


class SemiringHomomorphism:
    """A mapping ``h : K1 -> K2`` commuting with the semiring operations.

    Homomorphisms commute with positive relational algebra queries over
    K-relations [Green et al. 2007, Prop. 3.5]; the paper relies on this to
    prove snapshot-reducibility: the timeslice operator tau_T is a
    homomorphism from the period semiring ``K^T`` to ``K`` (Theorem 6.3) and
    even an m-semiring homomorphism (Theorem 7.2).

    Parameters
    ----------
    source, target:
        The two semiring structures.
    mapping:
        A function from source-domain values to target-domain values.
    name:
        Optional label used in reprs and error messages.
    """

    def __init__(
        self,
        source: Semiring,
        target: Semiring,
        mapping: Callable[[Any], Any],
        name: str = "h",
    ) -> None:
        self.source = source
        self.target = target
        self._mapping = mapping
        self.name = name

    def __call__(self, value: Any) -> Any:
        return self._mapping(value)

    def check_on(self, samples: Iterable[Any]) -> bool:
        """Verify the homomorphism laws on a finite set of sample values.

        Returns True iff the identities, all pairwise sums and all pairwise
        products are preserved.  Used by tests; production code assumes the
        laws hold.
        """
        items = list(samples)
        src, dst = self.source, self.target
        if self(src.zero) != dst.zero or self(src.one) != dst.one:
            return False
        for a in items:
            for b in items:
                if self(src.plus(a, b)) != dst.plus(self(a), self(b)):
                    return False
                if self(src.times(a, b)) != dst.times(self(a), self(b)):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<homomorphism {self.name}: {self.source.name} -> {self.target.name}>"
