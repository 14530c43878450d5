import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delaymoments.algebra import (
    COEFF_SYMBOL,
    VARIABLES,
    PoleError,
    Polynomial,
    RationalFunction,
    SeriesOrderError,
    TruncatedSeries,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    VariableMismatchError,
    laurent_expand_inverse_power,
    operand_order,
    polynomial_gcd,
)


def pm(*coeffs):
    return Polynomial("M", coeffs)


def pg(*coeffs):
    return Polynomial("g", coeffs)


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_poly = st.builds(lambda cs: pm(*cs),
                       st.lists(small_fraction, min_size=0, max_size=5))


def split_polys(symbol):
    """Non-zero polynomials scale * prod (x - r), which split over the
    integers as every denominator must."""
    return st.builds(lambda scale, roots: Polynomial.from_roots(symbol, roots) * scale,
                     small_fraction.filter(bool),
                     st.lists(st.integers(-3, 3), max_size=5))


class TestPolynomial:
    def test_basic_shape(self):
        p = pm(1, 0, 3)
        assert p.degree == 2 and p.coefficient(1) == 0
        assert pm().is_zero and pm().degree == -1
        assert pm(0, 0).is_zero

    def test_division_examples(self):
        assert divmod(pm(-1, 0, 1), pm(-1, 1)) == (pm(1, 1), pm())
        q, r = divmod(pm(1, 0, 1), pm(-1, 1))
        assert q == pm(1, 1) and r == pm(2)

    def test_gcd_example(self):
        g = polynomial_gcd(pm(-1, 0, 1), pm(1, -2, 1))
        assert g == pm(-1, 1)

    def test_evaluate(self):
        assert pg(1, 1).__pow__(4).evaluate(1) == 16
        assert pm(2, -1).evaluate(Fraction(1, 2)) == Fraction(3, 2)

    def test_symbol_mixing_rejected(self):
        with pytest.raises(VariableMismatchError):
            pm(1, 1) * pg(1, 1)

    def test_immutable(self):
        # Polynomials are shared (cached prefactors, module constants) and
        # hashed by both fields, so neither may be rebound or deleted.
        q = pm(1, 2)
        h = hash(q)
        for name, value in (("coeffs", (Fraction(1),)), ("symbol", "g"), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(q, name, value)
        for name in ("coeffs", "symbol"):
            with pytest.raises(AttributeError):
                delattr(q, name)
        assert q == pm(1, 2) and hash(q) == h
        for copied in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert copied == q and copied.symbol == q.symbol

    def test_str(self):
        assert str(pm(4, 0, -5, 0, 1)) == "M^4-5M^2+4"
        assert str(pg(0, -1)) == "-g"
        assert str(pm()) == "0"

    @given(a=small_poly, b=small_poly, c=small_poly)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a

    @given(a=small_poly, b=small_poly)
    @settings(max_examples=60)
    def test_divmod_invariant(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


@pytest.mark.parametrize("value", [
    RationalFunction(pm(1, 2), pm(-1, 0, 1) * 3),
    TruncatedSeries(VAR_GAMMA, {0: RationalFunction(pm(0, 1)),
                                2: RationalFunction(pm(1), pm(1, 1))}, 3),
    TruncatedSeries(VAR_INV_GAMMA, {}, 2, min_power=5),
], ids=["rational", "series", "zero-series"])
def test_rational_functions_and_series_copy_and_pickle(value):
    # Rebuilt by their constructors, not by setattr, and a zero series
    # keeps the leading power it knows beyond its window.
    for copied in (copy.copy(value), copy.deepcopy(value),
                   pickle.loads(pickle.dumps(value))):
        assert copied == value and type(copied) is type(value)
        assert getattr(copied, "min_power", None) == getattr(value, "min_power", None)
        with pytest.raises(AttributeError):
            copied.order = 0


class TestRationalFunction:
    def test_normalization(self):
        r = RationalFunction(pm(0, 2), pm(0, 0, 4))
        assert r.num == pm(Fraction(1, 2)) and r.den == pm(0, 1)
        again = RationalFunction(r.num, r.den)
        assert again == r

    def test_zero(self):
        z = RationalFunction(pm(), pm(3, 7))
        assert z.is_zero and z.den == pm(1)

    def test_arithmetic(self):
        a = RationalFunction(pm(1), pm(-1, 1))
        b = RationalFunction(pm(1), pm(1, 1))
        s = a + b
        assert s == RationalFunction(pm(0, 2), pm(-1, 0, 1))
        assert a * b == RationalFunction(pm(1), pm(-1, 0, 1))
        assert (a / b) == RationalFunction(pm(1, 1), pm(-1, 1))
        assert a - a == RationalFunction.constant("M", 0)

    def test_pow_negative(self):
        r = RationalFunction(pg(0, 1))
        assert r**-3 == RationalFunction(pg(1), pg(0, 0, 0, 1))

    def test_evaluate_and_pole(self):
        r = RationalFunction(pm(2), pm(-4, 0, 1))
        assert r.evaluate(4) == Fraction(1, 6)
        with pytest.raises(PoleError) as err:
            r.evaluate(2)
        assert "M^2-4" in str(err.value)

    def test_rendering(self):
        r = RationalFunction(pg(2, 0, 1), pg(1, 1) ** 6)
        assert str(r) == "(g^2+2)/(1+g)^6"
        assert r.latex() == r"\frac{\gamma^{2}+2}{(1+\gamma)^{6}}"
        s = RationalFunction(pm(0, 0, -12), pm(-1, 0, 1) * pm(-4, 0, 1))
        assert str(s) == "-12M^2/(M^2-1)(M^2-4)"
        t = RationalFunction(pm(-1, 0, -1), pm(0, 0, 1))
        assert str(t) == "-(M^2+1)/M^2"

    def test_constant_factor_only_scales(self, monkeypatch):
        # A constant RationalFunction factor takes the int and Fraction path:
        # the numerator and content are scaled, and no root is divided out.
        from delaymoments import algebra

        r = RationalFunction(pm(0, 3), pm(-1, 0, 1) * pm(2, 1))
        factors = {value: RationalFunction.constant("M", value)
                   for value in (6, -1, Fraction(-3, 4))}
        canonical = []
        real = algebra._canonical
        monkeypatch.setattr(algebra, "_canonical",
                            lambda *args: canonical.append(args) or real(*args))
        for value, constant in factors.items():
            assert r * constant == r * value  # equal fields
        assert canonical == []

    def test_refusal_without_integer_roots_is_immediate(self):
        # The denominator used to be factored by trying every divisor of
        # its constant term, which hung for large constants.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"M\^2\+1000000000000 has no integer root"):
            RationalFunction(pm(1), pm(10**12, 0, 1))
        with pytest.raises(ValueError, match=r"M\^2-200000000 has no integer root"):
            RationalFunction(pm(1), pm(-2 * 10**8, 0, 1) * pm(-7, 1))
        assert time.perf_counter() - start < 1.0

    def test_non_splitting_denominator_is_refused(self):
        with pytest.raises(ValueError, match=r"2M\^2\+1 has no integer root"):
            RationalFunction(pm(1), pm(1, 0, 2) * pm(2, 1) ** 2 * pm(0, 3))
        with pytest.raises(ValueError, match=r"2M\+1 has no integer root"):
            RationalFunction(pm(1), pm(1, 2))
        # Such a factor may sit in a numerator, but not in a divisor's.
        x = RationalFunction(pm(1, 1), pm(0, 1))
        y = RationalFunction(pm(1, 0, 1), pm(-1, 1))
        assert str(y) == "(M^2+1)/(M-1)"
        for refused in (lambda: x / y, lambda: y ** -1):
            with pytest.raises(ValueError, match=r"M\^2\+1 has no integer root"):
                refused()

    def test_immutable(self):
        r = RationalFunction(pm(1, 2), pm(-1, 1))
        with pytest.raises(AttributeError):
            r.num = pm(3)
        with pytest.raises(AttributeError):
            r._num = (3,)
        assert r == RationalFunction(pm(1, 2), pm(-1, 1))

    def test_integer_form(self):
        r = RationalFunction(pm(0, Fraction(3, 2)), pm(1, Fraction(1, 2)))
        num, den = r.integer_form()
        assert num == [0, 3] and den == [2, 1]

    @given(a=small_poly, b=split_polys("M"), c=small_poly, d=split_polys("M"),
           e=split_polys("M"))
    @settings(max_examples=40)
    def test_field_axioms(self, a, b, c, d, e):
        x = RationalFunction(a, b)
        y = RationalFunction(c, d)
        assert x + y == y + x
        assert (x + y) - y == x
        # A divisor's numerator becomes a denominator, so it splits too.
        z = RationalFunction(e, d)
        assert (x / z) * z == x


def series(variable, coeffs, order, **kw):
    return TruncatedSeries(variable, coeffs, order, **kw)


class TestExpand:
    def test_at_zero_and_at_infinity(self):
        c = RationalFunction(pg(2, 0, 1), pg(1, 1) ** 6)
        low = c.expand(VAR_GAMMA, 3)
        assert low.coefficient_symbol == "M" and low.min_power == 0
        assert [low.coefficient(j) for j in range(4)] == [2, -12, 43, -118]
        high = c.expand(VAR_INV_GAMMA, 6)
        assert high.min_power == 4 and dict(high.coeffs) == {4: 1, 5: -6, 6: 23}
        m = RationalFunction(pm(0, 0, 1), pm(-1, 0, 1)).expand(VAR_INV_M, 4)
        assert m.coefficient_symbol == "g" and dict(m.coeffs) == {0: 1, 2: 1, 4: 1}

    def test_leading_power_may_be_negative(self):
        pole = RationalFunction(pg(1, 1), pg(0, 0, 1))       # (1+g)/g^2
        s = pole.expand(VAR_GAMMA, 2)
        assert s.min_power == -2 and dict(s.coeffs) == {-2: 1, -1: 1}
        growth = RationalFunction(pg(0, 0, 1, 2), pg(3, 1))  # g^2(1+2g)/(3+g)
        s = growth.expand(VAR_INV_GAMMA, 1)
        assert s.min_power == -2 and dict(s.coeffs) == {-2: 2, -1: -5, 0: 15, 1: -45}
        s = growth.expand(VAR_GAMMA, 4)
        assert s.min_power == 2
        assert dict(s.coeffs) == {2: Fraction(1, 3), 3: Fraction(5, 9),
                                  4: Fraction(-5, 27)}
        below = growth.expand(VAR_INV_GAMMA, -5)
        assert below.is_zero and below.min_power == -2

    def test_zero_and_foreign_variable(self):
        assert RationalFunction.constant("g", 0).expand(VAR_GAMMA, 3).is_zero
        with pytest.raises(VariableMismatchError):
            RationalFunction(pm(1, 1)).expand(VAR_GAMMA, 2)
        with pytest.raises(VariableMismatchError):
            RationalFunction(pg(1, 1)).expand(VAR_INV_M, 2)

    @given(num=st.lists(small_fraction, min_size=1, max_size=4),
           den=split_polys("g"),
           order=st.integers(min_value=0, max_value=5))
    @settings(max_examples=40)
    def test_expansion_times_denominator_is_numerator(self, num, den, order):
        if not any(num):
            return
        f = RationalFunction(pg(*num), den)
        for variable in (VAR_GAMMA, VAR_INV_GAMMA):
            prod = f.expand(variable, order) * \
                RationalFunction(den).expand(variable, order)
            want = RationalFunction(pg(*num)).expand(variable, prod.order)
            for p in range(min(prod.min_power, want.min_power), prod.order + 1):
                assert prod.coefficient(p) == want.coefficient(p)


class TestTruncatedSeries:
    def test_square_of_alternating(self):
        s = series(VAR_GAMMA, {0: 1, 1: -1, 2: 1}, 2)
        sq = s * s
        assert sq.order == 2
        assert sq.coefficient(0) == RationalFunction.constant("M", 1)
        assert sq.coefficient(1) == RationalFunction.constant("M", -2)
        assert sq.coefficient(2) == RationalFunction.constant("M", 3)
        with pytest.raises(SeriesOrderError):
            sq.coefficient(3)

    def test_shift_power(self):
        s = series(VAR_GAMMA, {0: 1, 1: 1}, 1)
        shifted = s.shift_power(-2)
        assert shifted.min_power == -2 and shifted.order == -1
        assert shifted.coefficient(-2) == RationalFunction.constant("M", 1)

    def test_variable_mixing_rejected(self):
        a = series(VAR_GAMMA, {0: 1}, 1)
        b = series(VAR_INV_M, {0: 1}, 1)
        with pytest.raises(VariableMismatchError):
            a + b

    def test_order_propagation_in_product(self):
        a = series(VAR_GAMMA, {1: 1}, 3)          # x + O(x^4)
        b = series(VAR_GAMMA, {0: 1, 1: 1}, 2)    # 1 + x + O(x^3)
        prod = a * b
        assert prod.order == 3 and prod.min_power == 1

    def test_leading_power_is_read_from_the_coefficients(self):
        # The difference opens at x^2 although both operands open at x, so
        # its square is exact through 6 + 2.
        d = series(VAR_INV_GAMMA, {1: 1, 2: 3}, 6) - series(VAR_INV_GAMMA, {1: 1, 2: 1}, 6)
        assert d.min_power == 2 and (d * d).order == 8
        assert d.scale(0).is_zero and d.scale(0).min_power == 7
        # A given leading power counts only where no coefficient is left.
        assert series(VAR_GAMMA, {2: 1}, 3, min_power=0).min_power == 2
        assert series(VAR_GAMMA, {}, 3, min_power=1).min_power == 4
        assert series(VAR_GAMMA, {}, 3, min_power=6).min_power == 6

    def test_truncate_cannot_extend(self):
        s = series(VAR_GAMMA, {0: 1}, 2)
        assert s.truncate(1).order == 1
        with pytest.raises(SeriesOrderError):
            s.truncate(5)

    def test_laurent_expansion(self):
        p = Polynomial("M", (0, 0, 1))
        s = laurent_expand_inverse_power(p, 3, 10)
        assert s.terms() == [(1, RationalFunction.constant("g", 1))]
        q = Polynomial("M", (0, 1, 1))
        s = laurent_expand_inverse_power(q, 2, 10)
        assert [(0, "1"), (1, "1")] == [(p_, str(c)) for p_, c in s.terms()]
        s = laurent_expand_inverse_power(p, 1, 10)
        assert s.min_power == -1

    def test_times_m_polynomial(self):
        s = laurent_expand_inverse_power(Polynomial("M", (1,)), 0, 6)
        shifted = s.times_m_polynomial(Polynomial("M", (0, 0, 1)))
        assert shifted.min_power == -2 and shifted.order == 4
        assert shifted.coefficient(-2) == RationalFunction.constant("g", 1)

        # Every variable and symbol of the regime table: a product is exact
        # (nothing is dropped from a series far below its order), and an
        # operand at operand_order keeps `order` exact powers after it.
        m_val, g_val = Fraction(7, 3), Fraction(2, 5)
        # (value of the expansion variable, value of the coefficient symbol)
        point = {VAR_INV_M: (1 / m_val, g_val), VAR_GAMMA: (g_val, m_val),
                 VAR_INV_GAMMA: (1 / g_val, m_val)}

        def value_at(t):
            x, c_at = point[t.variable]
            return sum(c.evaluate(c_at) * x**p for p, c in t.coeffs.items())

        b = pm(3, -1, 2)
        for variable in VARIABLES:
            sym = COEFF_SYMBOL[variable]
            s = series(variable, {0: RationalFunction(Polynomial(sym, (1, 2)),
                                                      Polynomial(sym, (3, 1))),
                                  1: 5}, 6)
            value = value_at(s)
            assert s.evaluate(m_val, g_val) == value
            assert value_at(s.times_m_polynomial(b)) == value * b.evaluate(m_val)
            for symbol, x in (("M", m_val), ("g", g_val)):
                for k in (-3, 0, 2):
                    assert value_at(s.times_power(symbol, k)) == value * x**k, \
                        (variable, symbol, k)
            for m_power, g_power in ((2, -3), (0, -2), (-4, 0), (1, 1), (0, 5)):
                operand = series(variable, {0: 1},
                                 operand_order(variable, 3, m_power, g_power))
                product = operand.times_power("M", m_power).times_power("g", g_power)
                assert product.order >= 3, (variable, m_power, g_power)
            operand = series(variable, {0: 1}, operand_order(variable, 3, b.degree))
            assert operand.times_m_polynomial(b).order >= 3, variable
        assert operand_order(VAR_GAMMA, 3, 0, 5) == 0

        # An operand without coefficients, with its leading power given far
        # beyond its order or not, still loses p.degree powers.
        for operand in (series(VAR_INV_M, {}, 3, min_power=10),
                        TruncatedSeries.zero(VAR_INV_M, 3)):
            assert operand.times_m_polynomial(pm(0, 0, 1)).order == 1
        # The zero polynomial gives zero at the operand's order.
        for operand in (*(series(v, {0: 1, 2: 3}, 4) for v in VARIABLES),
                        TruncatedSeries.zero(VAR_INV_M, 3)):
            product = operand.times_m_polynomial(pm())
            assert product.is_zero and product.order == operand.order, operand

    def test_evaluate(self):
        s = series(VAR_INV_M, {0: RationalFunction(pg(1), pg(1, 1)), 2: 1}, 2)
        value = s.evaluate(2, 1)
        assert value == Fraction(1, 2) + Fraction(1, 4)

    @given(acoeffs=st.lists(small_fraction, min_size=1, max_size=4),
           bcoeffs=st.lists(small_fraction, min_size=1, max_size=4),
           x=st.fractions(min_value=Fraction(-1, 8), max_value=Fraction(1, 8),
                          max_denominator=16))
    @settings(max_examples=40)
    def test_product_matches_evaluation_up_to_tail(self, acoeffs, bcoeffs, x):
        order = max(len(acoeffs), len(bcoeffs)) - 1
        a = series(VAR_GAMMA, dict(enumerate(acoeffs)), order)
        b = series(VAR_GAMMA, dict(enumerate(bcoeffs)), order)
        prod = a * b
        lhs = prod.evaluate(1, x)
        rhs = a.evaluate(1, x) * b.evaluate(1, x)
        bound_const = (sum(abs(c) for c in acoeffs)
                       * sum(abs(c) for c in bcoeffs)) * 2
        assert abs(lhs - rhs) <= bound_const * abs(x) ** (prod.order + 1)

    def test_conservative_recomputation(self):
        low = series(VAR_GAMMA, {0: 1, 1: 2, 2: 3}, 2)
        high = series(VAR_GAMMA, {0: 1, 1: 2, 2: 3, 3: 4}, 3)
        for p in range(0, 3):
            assert low.coefficient(p) == high.coefficient(p)

    def test_normalization_idempotence(self):
        s = series(VAR_INV_M, {-1: RationalFunction(pg(0, 2), pg(0, 0, 4)),
                               2: 5}, 3)
        again = TruncatedSeries(s.variable, s.coeffs, s.order, s.min_power)
        assert again == s and again.min_power == s.min_power
        r = RationalFunction(pm(0, 2), pm(0, 0, 4))
        assert RationalFunction(r.num, r.den) == r
        p = pm(1, 2, 0, 0)
        assert Polynomial("M", p.coeffs) == p
