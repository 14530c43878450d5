from fractions import Fraction
from math import factorial

import pytest

from delaymoments.algebra import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    operand_order,
)
from delaymoments.engine import (
    InternalConsistencyError,
    absorption_weight,
    binomial_determinant,
    delay_schur_moment,
    durfee_filtered_lr_sum,
    falling_factorial,
    geometric_determinant,
    reflection_schur_moment,
    rising_factorial,
)
from delaymoments.partitions import (
    ContainmentError,
    Partition,
    content_product,
    dimension,
    durfee,
    enumerate_partitions,
    skew_tableaux,
    strip_expansion,
    subpartitions,
)
from oracles import (
    binomial_matrix_determinant,
    cells,
    durfee_side,
    durfee_weighted_sum,
    hook_dimension,
    inv_m_reflection_coefficients,
    shapes,
    strip_weight,
)


def pm(*coeffs):
    return Polynomial(SYM_M, coeffs)


def pg(*coeffs):
    return Polynomial(SYM_G, coeffs)


class TestFactorials:
    def test_rising(self):
        assert rising_factorial(()) == pm(1)
        assert rising_factorial((1,)) == pm(0, 1)
        assert rising_factorial((2,)) == pm(0, 1, 1)
        assert rising_factorial((1, 1)) == pm(0, -1, 1)

    def test_falling(self):
        assert falling_factorial(()) == pm(1)
        assert falling_factorial((1,)) == pm(0, 1)
        assert falling_factorial((2,)) == pm(0, -1, 1)
        assert falling_factorial((1, 1)) == pm(0, 1, 1)

    def test_rising_lowest_term_is_content_product_times_durfee_power(self):
        for w in range(0, 7):
            for mu in enumerate_partitions(w):
                poly = rising_factorial(mu)
                d = durfee(mu)
                assert all(poly.coefficient(k) == 0 for k in range(d))
                assert poly.coefficient(d) == content_product(mu)


class TestDeterminants:
    def test_binomial_examples(self):
        for lam in ((1,), (2, 1), (3, 2, 2)):
            assert binomial_determinant(lam, lam) == pm(1)
        assert binomial_determinant((1,), ()) == pm(0, 1)
        assert binomial_determinant((2,), (1,)) == pm(1, 1)
        with pytest.raises(ContainmentError):
            binomial_determinant((2,), (3,))

    def test_geometric_examples(self):
        assert geometric_determinant((), ()) == 1
        for rho in ((1,), (2, 2), (3, 1, 1)):
            assert geometric_determinant(rho, rho) == 1
        assert geometric_determinant((1,), (2,)) == 1
        assert geometric_determinant((1,), (1, 1)) == -1
        # hooks carry a parity sign, non-hooks vanish
        assert geometric_determinant((1,), (3, 1)) == -1
        assert geometric_determinant((1,), (2, 1, 1)) == 1
        assert geometric_determinant((1,), (2, 2)) == 0
        with pytest.raises(ContainmentError):
            geometric_determinant((2,), (1, 1))

    def test_closed_forms_match_elimination(self):
        # Degree |lam/mu| polynomials that agree at |lam/mu| + 1 points agree.
        for w in range(0, 9):
            for lam in enumerate_partitions(w):
                lp = lam.parts
                assert skew_tableaux(lp, ()) == dimension(lp)
                for mu in subpartitions(lp):
                    mp = mu.parts
                    poly = binomial_determinant(lp, mp)
                    for m in range(w - mu.weight + 1):
                        assert poly.evaluate(m) == binomial_matrix_determinant(lp, mp, m)
                    g_det = geometric_determinant(mp, lp)
                    assert g_det == binomial_matrix_determinant(lp, mp, 0)
                    assert (g_det == 0) == (durfee(lp) != durfee(mp))

    def test_absorption_weight(self):
        assert absorption_weight(()) == pg(1)
        assert absorption_weight((2, 2)) == pg(1, 2) * pg(1, 2)
        assert absorption_weight((3, 2)) == pg(1, 5, 6)


class TestDurfeeFilteredSum:
    def test_empty_rho_reduces_to_weight(self):
        for w in range(0, 6):
            for mu in enumerate_partitions(w):
                expected = dimension(mu) * content_product(mu) ** 2
                assert durfee_filtered_lr_sum(mu, ()) == expected

    def test_examples(self):
        assert durfee_filtered_lr_sum((1,), (2,)) == 6
        assert durfee_filtered_lr_sum((), (2,)) == 0

    def test_matches_independent_oracle(self):
        # Every pair of shapes up to total weight 6, in both orders and with
        # equal weights, at every side from 0 to 3: above a factor's own
        # Durfee side (the inv-gamma case), at it, and below it (zero at once).
        from delaymoments import engine

        engine._durfee_weighted_sum.cache_clear()
        for total in range(0, 7):
            for weight in range(total + 1):
                for a in shapes(weight):
                    for b in shapes(total - weight):
                        for side in range(4):
                            assert engine._durfee_weighted_sum(a, b, side) == \
                                durfee_weighted_sum(a, b, side), (a, b, side)

    def test_strip_weight_matches_independent_oracle(self):
        # Every shape a and cycle type beta, with and without fixed points,
        # up to total weight 6, at every side from 0 to 3: the kernel
        # against characters from the alternant times brute-force products.
        from delaymoments import engine

        engine._strip_weight.cache_clear()
        for total in range(0, 7):
            for weight in range(total + 1):
                for a in shapes(weight):
                    for beta in shapes(total - weight):
                        for side in range(4):
                            assert engine._strip_weight(a, beta, side) == \
                                strip_weight(a, beta, side), (a, beta, side)

    def test_absorption_regimes_expand_no_schur_product(self):
        # gamma and inv-gamma reach their Schur products through the strip
        # kernel alone: from cold caches no Littlewood-Richardson expansion
        # is asked for.
        from delaymoments import engine, partitions

        caches = (engine._reflection_gamma, engine._reflection_inv_gamma,
                  engine._delay_schur_moment, engine._durfee_weighted_sum,
                  partitions.schur_product)
        for cached in caches:
            cached.cache_clear()
        try:
            for lam in ((1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)):
                delay_schur_moment(lam, VAR_GAMMA, 3)
                delay_schur_moment(lam, VAR_INV_GAMMA, 6)
            info = partitions.schur_product.cache_info()
        finally:
            for cached in caches:
                cached.cache_clear()
        assert (info.hits, info.misses) == (0, 0)


class TestReflectionMoments:
    def test_empty_shape_is_one_everywhere(self):
        for regime in (VAR_INV_M, VAR_GAMMA, VAR_INV_GAMMA):
            s = reflection_schur_moment((), regime, 4)
            assert s.terms() == [(0, RationalFunction.constant(
                s.coefficient_symbol, 1))]

    def test_gamma_zeroth_coefficient_is_identity_moment(self):
        for w in range(0, 5):
            for mu in enumerate_partitions(w):
                s = reflection_schur_moment(mu, VAR_GAMMA, 0)
                expected = RationalFunction(
                    rising_factorial(mu) * Fraction(dimension(mu), factorial(w)))
                assert s.coefficient(0) == expected

    def test_trace_moment_large_m(self):
        # <Tr R> = M/(1+g) + g^2/((1+g)^5 M) + O(M^-2): the constant term
        # vanishes and the leading two coefficients are as published.
        s = reflection_schur_moment((1,), VAR_INV_M, 2)
        assert s.min_power == -1
        assert s.coefficient(-1) == RationalFunction(pg(1), pg(1, 1))
        assert s.coefficient(0).is_zero
        assert s.coefficient(1) == RationalFunction(pg(0, 0, 1), pg(1, 1) ** 5)

    def test_denominators_are_powers_of_one_plus_g(self):
        one_plus_g = pg(1, 1)
        for mu in ((1,), (2,), (1, 1), (2, 1)):
            s = reflection_schur_moment(mu, VAR_INV_M, 3)
            for _, coeff in s.terms():
                den = coeff.den
                while den.degree > 0:
                    den, rem = divmod(den, one_plus_g)
                    assert rem.is_zero, coeff
                assert den.degree == 0

    def test_cached_series_cannot_be_mutated(self):
        first = reflection_schur_moment((2, 1), VAR_INV_M, 2)
        with pytest.raises(TypeError):
            first.coeffs[0] = RationalFunction.constant(SYM_G, 7)
        with pytest.raises(AttributeError):
            first.order = 5
        again = reflection_schur_moment((2, 1), VAR_INV_M, 2)
        assert again == first and again.order == 2

    def test_inv_gamma_leading_terms(self):
        # <Tr R> = M/g - M/g^2 + ... in strong absorption.
        s = reflection_schur_moment((1,), VAR_INV_GAMMA, 2)
        assert s.min_power == 1
        assert s.coefficient(1) == RationalFunction(pm(0, 1))
        assert s.coefficient(2) == RationalFunction(pm(0, -1))


class TestDelayMoments:
    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            delay_schur_moment((), VAR_GAMMA, 1)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            delay_schur_moment((1,), "bogus", 2)

    def test_broken_gamma_cancellation_is_reported(self, monkeypatch):
        # A gamma reflection moment that is off by a constant for the empty
        # shape leaves g^0 in the transform, which must not pass silently.
        from delaymoments import engine

        real = engine._reflection_gamma

        def perturbed(mp, order):
            series = real(mp, order)
            return series if mp else series + TruncatedSeries(VAR_GAMMA, {0: 1}, order)

        engine._delay_schur_moment.cache_clear()
        monkeypatch.setattr(engine, "_reflection_gamma", perturbed)
        try:
            with pytest.raises(InternalConsistencyError, match=r"at g\^0;"):
                delay_schur_moment((1,), VAR_GAMMA, 1)
        finally:
            engine._delay_schur_moment.cache_clear()

    def test_binomial_transform_vanishing(self):
        # Fingerprint of Q = 0 at zero absorption: the alternating
        # binomial-determinant sum of identity moments vanishes identically.
        for w in range(1, 6):
            for lam in enumerate_partitions(w):
                total = pm()
                for mu in subpartitions(lam):
                    term = binomial_determinant(lam, mu) * rising_factorial(mu) \
                        * Fraction(dimension(mu), factorial(mu.weight))
                    total = total + ((-term) if mu.weight % 2 else term)
                assert total.is_zero, lam

    def test_schur_1_gamma(self):
        # <s_(1)(Q)> = <Tr Q> = M - g M^3/(M^2-1) + O(g^2)
        s = delay_schur_moment((1,), VAR_GAMMA, 1)
        assert s.coefficient(0) == RationalFunction(pm(0, 1))
        assert s.coefficient(1) == RationalFunction(pm(0, 0, 0, -1), pm(-1, 0, 1))

    def test_schur_1_inv_m_leading(self):
        s = delay_schur_moment((1,), VAR_INV_M, 1)
        assert s.min_power == -1
        assert s.coefficient(-1) == RationalFunction(pg(1), pg(1, 1))

    def test_conservative_truncation(self):
        for regime, orders in ((VAR_INV_M, (2, 4)), (VAR_GAMMA, (1, 3)),
                               (VAR_INV_GAMMA, (4, 6))):
            low = delay_schur_moment((2,), regime, orders[0])
            high = delay_schur_moment((2,), regime, orders[1])
            for p in range(low.min_power, low.order + 1):
                assert low.coefficient(p) == high.coefficient(p)

    def test_deterministic_recomputation(self):
        from delaymoments.engine import _delay_schur_moment

        first = delay_schur_moment((2, 1), VAR_GAMMA, 2)
        _delay_schur_moment.cache_clear()
        second = delay_schur_moment((2, 1), VAR_GAMMA, 2)
        assert first == second

    def test_large_m_denominator_structure_flag(self):
        # Structurally, every large-M coefficient denominator divides
        # g^a (1+g)^b (the transform contributes the g power).  Whether the
        # g power actually survives reduction is observed and reported, not
        # assumed: for all statistics checked so far it cancels (a = 0).
        from delaymoments.stats import _cumulant, _wigner_moment

        observed_pole = 0
        series_list = [_wigner_moment(1, VAR_INV_M, 4),
                       _wigner_moment(2, VAR_INV_M, 4),
                       _cumulant(2, VAR_INV_M, 4),
                       _cumulant(3, VAR_INV_M, 4)]
        one_plus_g = pg(1, 1)
        g = pg(0, 1)
        for s in series_list:
            for _, coeff in s.terms():
                den = coeff.den
                while den.degree > 0 and den % one_plus_g == pg():
                    den = divmod(den, one_plus_g)[0]
                while den.degree > 0 and den.coefficient(0) == 0:
                    den = divmod(den, g)[0]
                    observed_pole += 1
                assert den.degree == 0, f"unexpected factor {den}"
        print(f"residual absorption poles in reduced denominators: "
              f"{observed_pole}")


# An oracle for the absorption coefficients that shares no code with the
# engine: shapes, hook lengths, contents and Durfee squares come from
# `oracles`, LR coefficients from expanding actual polynomial products and
# the geometric determinants from elimination on the binomial matrix.

def _contained(inner, outer):
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def _factorial_product(shape, m_value, sign):
    """prod (M + sign * content) over the cells, at M = m_value."""
    out = 1
    for i, j in cells(shape):
        out *= m_value + sign * (j - i)
    return out


def _oracle_gamma(mu, m, m_value):
    n, side = sum(mu), durfee_side(mu)
    t = 1
    for i, j in cells(mu):
        t *= (j - i) or 1
    inner = sum(Fraction(hook_dimension(rho) * durfee_weighted_sum(mu, rho, side),
                         _factorial_product(rho, m_value, -1))
                for rho in shapes(m))
    return (Fraction(_factorial_product(mu, m_value, 1), t * t) * inner
            * (-m_value) ** m / (factorial(m) * factorial(n + m)))


def _oracle_inv_gamma(mu, k, m_value):
    n, side = sum(mu), durfee_side(mu)
    t = 1
    for i, j in cells(mu):
        t *= (j - i) or 1
    total = Fraction(0)
    for rho_weight in range(n, k + 1):
        for rho in shapes(rho_weight):
            if not _contained(mu, rho):
                continue
            g_det = binomial_matrix_determinant(rho, mu, 0)
            if not g_det:
                continue
            for omega in shapes(k - rho_weight):
                total += (g_det * durfee_weighted_sum(omega, rho, side) * hook_dimension(omega)
                          * Fraction(_factorial_product(omega, m_value, 1),
                                     factorial(sum(omega))))
    return (Fraction((-1) ** n * _factorial_product(mu, m_value, 1) ** 2, t * t)
            * total / ((-1) ** k * factorial(k) * m_value ** k))


@pytest.mark.parametrize("regime,order,oracle", [
    (VAR_GAMMA, 4, _oracle_gamma), (VAR_INV_GAMMA, 8, _oracle_inv_gamma)])
def test_absorption_coefficients_match_independent_oracle(regime, order, oracle):
    for w in range(4):
        for mu in shapes(w):
            series = reflection_schur_moment(mu, regime, order)
            for p in range(order + 1):
                for m_value in (7, 11):
                    assert series.coefficient(p).evaluate(m_value) == \
                        oracle(mu, p, m_value), (mu, p, m_value)


def test_lossless_cavity_matches_the_inverse_wishart_law():
    # At g = 0, Q = M W^-1 with W complex Wishart (M x M, 2M degrees of
    # freedom), whose inverse moments are known in closed form (Graczyk,
    # Letac and Massam, Ann. Statist. 31, 287 (2003)):
    # <s_lam(Q)> = M^|lam| f^lam/|lam|! prod(M + c)/prod(M - c) over the
    # cells.  The engine reaches g^0 through the transform, which cancels
    # the |lam| leading powers of the reflection moments.
    for weight in range(1, 8):
        for lam in shapes(weight):
            num = pm(Fraction(hook_dimension(lam), factorial(weight)))
            den = pm(1)
            for i, j in cells(lam):
                num, den = num * pm(0, j - i, 1), den * pm(i - j, 1)
            coeff = delay_schur_moment(lam, VAR_GAMMA, 0).coefficient(0)
            assert coeff == RationalFunction(num, den), lam


def test_lossless_cavity_matches_the_inverse_wishart_law_at_large_m():
    # The same law in powers of x = 1/M: M^|lam| prod (M + c)/(M - c) is
    # x^-|lam| prod (1 + c x)/(1 - c x), and (1 + c x)/(1 - c x) is
    # 1 + 2 sum_k>0 (c x)^k.  Every 1/M coefficient, a function of g, takes
    # its value at g = 0; a pole there (PoleError) fails the test too.
    for weight, order in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 2)):
        size = weight + order + 1
        for lam in shapes(weight):
            law = [Fraction(hook_dimension(lam), factorial(weight))] + [0] * (size - 1)
            for i, j in cells(lam):
                cell = [1] + [2 * (j - i) ** k for k in range(1, size)]
                law = [sum(law[a] * cell[k - a] for a in range(k + 1)) for k in range(size)]
            series = delay_schur_moment(lam, VAR_INV_M, order)
            for k, want in enumerate(law):
                assert series.coefficient(k - weight).evaluate(0) == want, (lam, k - weight)


def test_absorption_coefficients_need_no_root_search(monkeypatch):
    # Their denominators are products of (M - content), or powers of (1 + g)
    # in the large-M regime, and the Wigner moments divide by M**n: every
    # root is known when the sum is built, so no non-constant denominator
    # is searched.
    from delaymoments import algebra, engine, stats

    real = algebra._split_integer_roots
    searched = []

    def counting(cs):
        if len(cs) > 1:
            searched.append(cs)
        return real(cs)

    caches = (engine._reflection_inv_m, engine._reflection_gamma,
              engine._reflection_inv_gamma, engine._delay_schur_moment,
              stats._wigner_moment)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(algebra, "_split_integer_roots", counting)
    try:
        engine._reflection_gamma((2, 1), 4)
        engine._reflection_inv_gamma((2, 1), 8)
        engine._reflection_inv_m((2, 1), 2)
        stats._wigner_moment(3, VAR_GAMMA, 3)
        stats._wigner_moment(3, VAR_INV_GAMMA, 6)
    finally:
        for cached in caches:
            cached.cache_clear()
    assert searched == []


def _clear_engine_caches():
    """Empty every cache of `engine`, `partitions` and `stats`, found through
    `cache_clear`, so that no warm entry hides the work a test watches."""
    from delaymoments import engine, partitions, stats

    for module in (engine, partitions, stats):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_generated_shapes_are_not_revalidated(monkeypatch):
    # Cycle-type heads and tails, and the shapes the strip-weight kernel
    # reaches, are built by the engine, so no Partition is validated for them.
    from delaymoments import engine, partitions

    mu = partitions.Partition((2, 1))
    real = partitions.Partition.__new__
    validated = []

    def counting(cls, parts=()):
        validated.append(parts)
        return real(cls, parts)

    _clear_engine_caches()
    monkeypatch.setattr(partitions.Partition, "__new__", staticmethod(counting))
    try:
        engine._reflection_gamma(mu, 4)
        engine._reflection_inv_gamma(mu, 8)
        engine._reflection_inv_m(mu, 2)
    finally:
        _clear_engine_caches()
    assert validated == []


def test_inv_m_builds_one_coefficient_per_power(monkeypatch):
    # The cycle-type terms are summed as integer coefficient tuples: before
    # the prefactor rising_factorial(mu)**2 is built, no Polynomial exists
    # and at most one RationalFunction per power of 1/M, however many cycle
    # types enter.  Every Polynomial, from the constructor, the arithmetic,
    # from_roots or RationalFunction.num/den, and every RationalFunction but
    # those of the root-searching constructor is made by the one
    # `_IntegerForm._new`, counted here by the class it builds.
    from delaymoments import algebra, engine

    created = {"polynomials": 0, "rational functions": 0}
    cycle_types = []
    weights = []
    at_prefactor = []

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            created[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    def prefactor(mu):
        at_prefactor.append(dict(created))
        return rising_factorial(mu)

    def expansion(mu, beta, d):
        cycle_types.append(beta)
        return strip_expansion(mu, beta, d)

    def partitions_of(m, *args, **kwargs):
        weights.append(m)
        return enumerate_partitions(m, *args, **kwargs)

    new = algebra._IntegerForm._new.__func__

    def counted_new(cls, *args):
        kind = "polynomials" if cls is algebra.Polynomial else "rational functions"
        created[kind] += 1
        return new(cls, *args)

    monkeypatch.setattr(algebra._IntegerForm, "_new", classmethod(counted_new))
    monkeypatch.setattr(algebra.RationalFunction, "__init__",
                        counted("rational functions", algebra.RationalFunction.__init__))
    monkeypatch.setattr(engine, "rising_factorial", prefactor)
    monkeypatch.setattr(engine, "strip_expansion", expansion)
    monkeypatch.setattr(engine, "enumerate_partitions", partitions_of)
    _clear_engine_caches()
    try:
        engine._reflection_inv_m((3, 2), 2)
    finally:
        _clear_engine_caches()
    # The bare sum has powers 5 to 12 of 1/M.
    [counts] = at_prefactor
    assert counts["polynomials"] == 0
    assert counts["rational functions"] <= 8 < len(cycle_types)
    # Each power reads the partitions of k = |beta| - length(beta), never
    # past order + |mu| = 7: no cycle type is built only to be dropped.
    assert weights and max(weights) <= 7


def test_inv_m_coefficients_match_independent_oracle():
    # Characters from the alternant, LR products from polynomials, the
    # Durfee filter and every weight computed in `oracles`, the terms summed
    # one by one with the public rational arithmetic.
    for mu, order in (((), 3), ((1,), 2), ((2,), 1), ((1, 1), 1), ((3,), 0),
                      ((2, 1), 0)):
        series = reflection_schur_moment(mu, VAR_INV_M, order)
        assert dict(series.coeffs) == inv_m_reflection_coefficients(mu, order), mu


# The six series memos keep the widest series per key and answer a lower
# order by truncation.  Each case: (module, function, key, low, high, keys),
# where `keys` counts the memo entries one call fills (the cumulant recursion
# fills one per index below it too).
_P21 = Partition((2, 1))
MEMO_CASES = [
    ("engine", "_reflection_inv_m", (_P21,), 0, 2, 1),
    ("engine", "_reflection_gamma", (_P21,), 1, 4, 1),
    ("engine", "_reflection_inv_gamma", (_P21,), 3, 7, 1),
] + [
    (module, name, (arg, regime), low, high, keys)
    for regime, low, high in ((VAR_INV_M, 0, 2), (VAR_GAMMA, 0, 3), (VAR_INV_GAMMA, 3, 6))
    for module, name, arg, keys in (("engine", "_delay_schur_moment", ((_P21, 1),), 1),
                                    ("stats", "_wigner_moment", 2, 1),
                                    ("stats", "_cumulant", 2, 2))
]


@pytest.mark.parametrize("module,name,key,low,high,keys", MEMO_CASES,
                         ids=[f"{c[1]}-{c[2][-1]}" for c in MEMO_CASES])
def test_widest_series_memo(module, name, key, low, high, keys):
    from delaymoments import engine, stats

    memo = getattr({"engine": engine, "stats": stats}[module], name)
    _clear_engine_caches()
    try:
        cold = memo(*key, low)
        _clear_engine_caches()
        memo(*key, high)
        warm = memo(*key, low)
        assert warm == cold and warm.min_power == cold.min_power

        # Descending orders: the first misses, every later one is a hit.
        _clear_engine_caches()
        for order in range(high, low - 1, -1):
            memo(*key, order)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (high - low, keys, keys)
        # A wider order computes again, once per entry.
        wider = memo(*key, high + 1)
        assert memo.cache_info().misses == 2 * keys
        assert wider.order == high + 1 and memo(*key, high) == wider.truncate(high)
    finally:
        _clear_engine_caches()


@pytest.mark.parametrize("regime,orders", [
    (VAR_INV_M, (0, 2)), (VAR_GAMMA, (0, 2)), (VAR_INV_GAMMA, (5, 8))])
def test_transform_matches_series_arithmetic(regime, orders):
    # The transform as plain series arithmetic, from public calls: the sum
    # over mu inside lam of (-1)^|mu| B(lam, mu) * <s_mu(R)>, divided by
    # g^|lam|.  The engine sums each output power in one reduction.
    from delaymoments import engine

    for weight in range(1, 6):
        for lam in enumerate_partitions(weight):
            for order in orders:
                total = None
                for mu in subpartitions(lam):
                    inner = reflection_schur_moment(
                        mu, regime, operand_order(regime, order, weight - mu.weight, -weight))
                    term = inner.times_m_polynomial(binomial_determinant(lam, mu))
                    term = -term if mu.weight % 2 else term
                    total = term if total is None else total + term
                want = total.times_power(SYM_G, -weight).truncate(order)
                engine._delay_schur_moment.cache_clear()
                got = delay_schur_moment(lam, regime, order)
                assert got == want and got.min_power == want.min_power, (lam, order)


def test_per_power_caches_build_each_coefficient_once():
    # The heavy absorption requests of the command line build every
    # reflection coefficient once: the misses of the per-power caches are
    # the distinct (shape, power) pairs the transform asks for.  Cumulant 6
    # reaches every shape of weight <= 6 through the delay moments of the
    # shapes of weight 1-6.
    from delaymoments import engine
    from delaymoments.stats import RegimeRequest, cumulant

    shapes_upto_6 = [mu for w in range(7) for mu in enumerate_partitions(w)]
    _clear_engine_caches()
    try:
        # gamma: mu sits inside a shape of weight 6, so it is asked at order
        # 8 + 6, from power 0.
        cumulant(6, RegimeRequest(VAR_GAMMA, 8))
        gamma = engine._gamma_coefficient.cache_info()
        _clear_engine_caches()
        # inv-gamma: mu is asked at 20 - |lam| for the smallest non-empty lam
        # containing it, from power |mu|; rho of weights |mu|..k is read per k.
        cumulant(6, RegimeRequest(VAR_INV_GAMMA, 20))
        inv_gamma = engine._inv_gamma_coefficient.cache_info()
        containing = engine._containing_shapes.cache_info()
    finally:
        _clear_engine_caches()
    assert gamma.misses == gamma.currsize == len(shapes_upto_6) * 15 == 450
    pairs = {(mu, k) for mu in shapes_upto_6
             for k in range(mu.weight, 20 - max(mu.weight, 1) + 1)}
    assert inv_gamma.misses == inv_gamma.currsize == len(pairs) == 359
    assert containing.misses == containing.currsize == len(pairs)


def test_transform_skips_zero_factors(monkeypatch):
    # The character expansion of p_(2,2,2,2) reaches 65 shapes mu, and for 6
    # of them the summed factor C(mu) is the zero polynomial; the transform
    # asks for the reflection moments of the other 59 only, each once.
    from delaymoments import engine
    from delaymoments.stats import RegimeRequest, power_sum_moment

    real = engine.reflection_schur_moment
    asked = []

    def counting(mu, regime, order):
        asked.append(mu)
        return real(mu, regime, order)

    _clear_engine_caches()
    monkeypatch.setattr(engine, "reflection_schur_moment", counting)
    try:
        power_sum_moment((2, 2, 2, 2), RegimeRequest(VAR_GAMMA, 1))
    finally:
        _clear_engine_caches()
    assert len(asked) == len(set(asked)) == 59
