"""Value types compare equal only to values of their own type, and equal values hash equal (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from loghurwitz.ffield import field  # noqa: E402
from loghurwitz.ratfunc import INFINITY, Place, Polynomial, RationalFunction  # noqa: E402

F3 = field(3, 1)
F4 = field(2, 2)


def elements(spec):
    return st.integers(0, spec.q - 1).map(spec.element)


def polynomials(spec):
    """Polynomials from coefficient indices, and from the arithmetic that builds log lists directly."""
    base = st.lists(st.integers(0, spec.q - 1), max_size=3).map(lambda idxs: Polynomial.from_indices(spec, idxs))
    pairs, divisions = st.tuples(base, base), st.tuples(base, base.filter(bool))
    return st.one_of(
        base,
        pairs.map(lambda ab: ab[0] * ab[1]),
        divisions.map(lambda ab: ab[0].divmod(ab[1])[0]),
        divisions.map(lambda ab: ab[0].divmod(ab[1])[1]),
        base.map(lambda a: -a),
        base.map(lambda a: a.derivative()),
        base.map(lambda a: a.monic()),
    )


def rational_functions(spec):
    dens = polynomials(spec).filter(lambda d: not d.is_zero())
    return st.tuples(polynomials(spec), dens).map(lambda nd: RationalFunction(*nd))


def places(spec):
    return st.one_of(st.just(INFINITY), elements(spec).map(Place.finite))


VALUES = st.one_of(
    st.integers(-2, 4),
    *(kind(spec) for spec in (F3, F4) for kind in (elements, polynomials, rational_functions, places)),
)


@settings(max_examples=400, deadline=None)
@given(VALUES, VALUES)
@example(F3.from_int(1), 1)
@example(RationalFunction.constant(F3, 1), F3.from_int(1))
@example(RationalFunction.constant(F3, 1), Polynomial.constant(F3, 1))
def test_equal_values_are_symmetric_and_hash_equal(a, b):
    if a == b:
        assert b == a
        assert hash(a) == hash(b)


def test_no_cross_type_equality():
    one = F3.from_int(1)
    assert one != 1 and F3.from_int(0) != 0 and not F3.from_int(0)
    assert len({one, 1}) == 2
    assert RationalFunction.constant(F3, 1) != one
    assert Polynomial.constant(F3, 1) != RationalFunction.constant(F3, 1)
    assert RationalFunction.constant(F3, 1) != Polynomial.constant(F3, 1)
    assert Place.finite(one) != one and INFINITY != None  # noqa: E711


@settings(max_examples=400, deadline=None)
@given(polynomials(F4), polynomials(F4))
def test_polynomials_equal_exactly_when_their_coefficients_do(a, b):
    assert a == Polynomial.from_indices(F4, a.coeffs)
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
