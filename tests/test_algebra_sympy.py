"""Differential test of RationalFunction against sympy's `cancel`.

sympy is a test-only dependency: the module is skipped without it.
Denominators are a scale times products of (M - r)**k with small integer r,
since RationalFunction refuses a denominator that does not split over the
integers; a divisor's numerator is built the same way.
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
roots = root_factors.map(lambda factors: [r for r, k in factors for _ in range(k)])
scales = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


def poly_expr(p):
    return sum((sympy.Rational(a.numerator, a.denominator) * M**k
                for k, a in enumerate(p.coeffs)), sympy.Integer(0))


@st.composite
def operands(draw, split_numerator=False):
    """(ours, sympy expression) for one random quotient; with
    `split_numerator` the numerator splits over the integers too."""
    if split_numerator:
        num = Polynomial.from_roots("M", draw(roots)) * draw(scales) \
            * draw(st.sampled_from((1, -1)))
    else:
        num = Polynomial("M", draw(numerators))
    den = Polynomial.from_roots("M", draw(roots)) * draw(scales)
    return RationalFunction(num, den), poly_expr(num) / poly_expr(den)


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


@given(x=operands(), y=operands(split_numerator=True),
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


@given(x=operands(), y=operands(split_numerator=True))
@settings(max_examples=25, deadline=None)
def test_canonical_form_is_route_independent(x, y):
    a, _ = x
    b, _ = y
    for other in (RationalFunction(a.num, a.den), (a + b) - b, (a * b) / b):
        assert other == a
        assert other.integer_form() == a.integer_form()
        assert str(other) == str(a) and other.latex() == a.latex()
        assert hash(other) == hash(a)


weights = st.one_of(st.integers(-4, 4), fractions)
# An optional integer polynomial factor per term, ascending coefficients.
factors = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(
    lambda cs: cs[-1] != 0).map(tuple)
root_terms = st.lists(st.one_of(st.tuples(weights, roots, roots),
                                st.tuples(weights, roots, roots, factors)), max_size=4)


def root_product(rs):
    out = sympy.Integer(1)
    for r in rs:
        out *= M - r
    return out


def factor_expr(f):
    """The optional factor of a root term: f is empty or holds coefficients."""
    return sum(c * M**k for k, c in enumerate(f[0])) if f else 1


def rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


@given(terms=root_terms, scale=st.one_of(st.integers(-3, 3), scales),
       num_roots=roots, den_roots=roots)
@settings(max_examples=40, deadline=None)
def test_root_terms_sum_once(terms, scale, num_roots, den_roots):
    # The one-shot sum over known roots equals sympy's reduced form and has
    # the fields of the same value built and summed term by term.
    ours = RationalFunction.from_root_terms("M", terms, scale, num_roots, den_roots)
    assert_matches(ours, rational(scale) * root_product(num_roots) / root_product(den_roots)
                   * sum(rational(w) * factor_expr(f) * root_product(a) / root_product(b)
                         for w, a, b, *f in terms))

    def public(w, a, b, f=(1,)):
        return RationalFunction(Polynomial.from_roots("M", a) * Polynomial("M", f) * w,
                                Polynomial.from_roots("M", b))

    by_terms = RationalFunction.constant("M", 0)
    for term in terms:
        by_terms = by_terms + public(*term)
    by_terms = by_terms * public(scale, num_roots, den_roots)
    assert ours == by_terms
    assert ours.integer_form() == by_terms.integer_form()
    assert str(ours) == str(by_terms) and ours.latex() == by_terms.latex()
