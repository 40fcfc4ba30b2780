"""Property-based tests: Theorems 6.2, 6.3, 7.1 and 7.2 of the paper.

* ``K^T`` satisfies the commutative semiring laws (Theorem 6.2),
* the timeslice operator ``tau_T`` is a semiring homomorphism ``K^T -> K``
  (Theorem 6.3) and also commutes with the monus (Theorem 7.2),
* the monus of ``K^T`` is point-wise the monus of K, i.e. the natural order
  and least-solution characterisation hold (Theorem 7.1).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semirings.standard import BOOLEAN, NATURAL
from repro.temporal.period_semiring import PeriodSemiring

from tests.strategies import (
    PROPERTY_DOMAIN,
    boolean_values,
    natural_values,
    temporal_elements,
)

NT = PeriodSemiring(NATURAL, PROPERTY_DOMAIN)
BT = PeriodSemiring(BOOLEAN, PROPERTY_DOMAIN)

CASES = [
    pytest.param(NT, temporal_elements(NATURAL, natural_values()), id="N^T"),
    pytest.param(BT, temporal_elements(BOOLEAN, boolean_values()), id="B^T"),
]


def coalesced(draw, elements):
    return draw(elements).coalesce()


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_addition_laws(semiring, elements, data):
    a, b, c = (coalesced(data.draw, elements) for elements in (elements,) * 3)
    assert semiring.plus(a, b) == semiring.plus(b, a)
    assert semiring.plus(semiring.plus(a, b), c) == semiring.plus(a, semiring.plus(b, c))
    assert semiring.plus(a, semiring.zero) == a


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_multiplication_laws(semiring, elements, data):
    a, b, c = (coalesced(data.draw, elements) for elements in (elements,) * 3)
    assert semiring.times(a, b) == semiring.times(b, a)
    assert semiring.times(semiring.times(a, b), c) == semiring.times(
        a, semiring.times(b, c)
    )
    assert semiring.times(a, semiring.one) == a
    assert semiring.times(a, semiring.zero) == semiring.zero


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_distributivity(semiring, elements, data):
    a, b, c = (coalesced(data.draw, elements) for elements in (elements,) * 3)
    assert semiring.times(a, semiring.plus(b, c)) == semiring.plus(
        semiring.times(a, b), semiring.times(a, c)
    )


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_timeslice_is_homomorphism(semiring, elements, data):
    """Theorem 6.3 / 7.2: tau_T commutes with +, * and the monus."""
    base = semiring.base
    a = coalesced(data.draw, elements)
    b = coalesced(data.draw, elements)
    point = data.draw(
        st.integers(PROPERTY_DOMAIN.min_point, PROPERTY_DOMAIN.max_point - 1)
    )
    assert semiring.plus(a, b).at(point) == base.plus(a.at(point), b.at(point))
    assert semiring.times(a, b).at(point) == base.times(a.at(point), b.at(point))
    if semiring.has_monus:
        assert semiring.monus(a, b).at(point) == base.monus(a.at(point), b.at(point))
    assert semiring.zero.at(point) == base.zero
    assert semiring.one.at(point) == base.one


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_monus_least_solution(semiring, elements, data):
    """Theorem 7.1: the monus is the least c with a <= b + c."""
    a = coalesced(data.draw, elements)
    b = coalesced(data.draw, elements)
    difference = semiring.monus(a, b)
    assert semiring.natural_leq(a, semiring.plus(b, difference))
    other = coalesced(data.draw, elements)
    if semiring.natural_leq(a, semiring.plus(b, other)):
        assert semiring.natural_leq(difference, other)


@pytest.mark.parametrize("semiring,elements", CASES)
@given(data=st.data())
def test_results_are_always_coalesced(semiring, elements, data):
    """K^T operations return normal-form (coalesced) elements."""
    a = coalesced(data.draw, elements)
    b = coalesced(data.draw, elements)
    assert semiring.plus(a, b).is_coalesced()
    assert semiring.times(a, b).is_coalesced()
    if semiring.has_monus:
        assert semiring.monus(a, b).is_coalesced()
