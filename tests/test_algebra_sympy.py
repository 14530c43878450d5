"""Differential test of RationalFunction against sympy's `cancel`.

sympy is a test-only dependency: the module is skipped without it.
Denominators are products of (M - r)**k with small integer r, optionally
times an irreducible quadratic M^2 + c, as in the engine plus the general
residual path.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delaymoments.algebra import PoleError, Polynomial, RationalFunction

sympy = pytest.importorskip("sympy")

M = sympy.Symbol("M")

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
numerators = st.lists(fractions, min_size=1, max_size=4)
root_factors = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 2)), max_size=3)
quadratic = st.one_of(st.none(), st.integers(1, 5))
scales = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


@st.composite
def operands(draw):
    """(ours, sympy expression) for one random quotient."""
    num = draw(numerators)
    roots = draw(root_factors)
    c = draw(quadratic)
    scale = draw(scales)
    den = Polynomial.constant("M", scale)
    den_expr = sympy.Rational(scale.numerator, scale.denominator)
    for r, k in roots:
        den = den * Polynomial("M", (-r, 1)) ** k
        den_expr *= (M - r) ** k
    if c is not None:
        den = den * Polynomial("M", (c, 0, 1))
        den_expr *= M**2 + c
    num_expr = sum(sympy.Rational(a.numerator, a.denominator) * M**k
                   for k, a in enumerate(num))
    return RationalFunction(Polynomial("M", num), den), num_expr / den_expr


def as_expr(coeffs):
    return sum(sympy.Integer(a) * M**k for k, a in enumerate(coeffs))


def assert_matches(ours: RationalFunction, expected) -> None:
    """`ours` equals `expected` and is in lowest terms with the documented
    integer normalisation."""
    p, q = sympy.fraction(sympy.cancel(expected))
    num, den = ours.integer_form()
    assert sympy.expand(as_expr(num) * q - p * as_expr(den)) == 0
    if p == 0:
        assert num == [] and den == [1]
        return
    assert len(num) - 1 == sympy.degree(p, M)
    assert len(den) - 1 == sympy.degree(q, M)
    assert sympy.igcd(*num, *den) == 1 and den[-1] > 0


@given(x=operands(), y=operands(),
       v=st.fractions(min_value=-4, max_value=4, max_denominator=3),
       n=st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_matches_sympy(x, y, v, n):
    a, ea = x
    b, eb = y
    assert_matches(a, ea)
    assert_matches(a + b, ea + eb)
    assert_matches(a - b, ea - eb)
    assert_matches(a * b, ea * eb)
    if not b.is_zero:
        assert_matches(a / b, ea / eb)
        assert_matches(b**-n, eb**-n)

    p, q = sympy.fraction(sympy.cancel(ea))
    at = sympy.Rational(v.numerator, v.denominator)
    if q.subs(M, at) == 0:
        with pytest.raises(PoleError):
            a.evaluate(v)
    else:
        value = (p / q).subs(M, at)
        assert a.evaluate(v) == Fraction(int(value.p), int(value.q))


@given(x=operands(), y=operands())
@settings(max_examples=25, deadline=None)
def test_canonical_form_is_route_independent(x, y):
    a, _ = x
    b, _ = y
    routes = [RationalFunction(a.num, a.den), (a + b) - b]
    if not b.is_zero:
        routes.append((a * b) / b)
    for other in routes:
        assert other == a
        assert other.integer_form() == a.integer_form()
        assert str(other) == str(a) and other.latex() == a.latex()
        assert hash(other) == hash(a)
