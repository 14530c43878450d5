"""Acceptance suite: every exit criterion, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines.  Three reference strings carry known typographic
defects; their literal comparisons are strict-xfail tests (they must keep
failing; an engine altered to match the defective strings would flip them
to XPASS and break the suite) while the mathematically cross-validated
values are asserted exactly.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from delaymoments.algebra import (
    Polynomial,
    RationalFunction,
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
)
from delaymoments.partitions import (
    character,
    class_size,
    character_row,
    enumerate_partitions,
    schur_product,
)
from delaymoments.reference import all_checks
from delaymoments.stats import (
    _cumulant,
    _wigner_moment,
    moments_from_cumulants,
    validate_conjectures,
)

from oracles import brute_schur_product, frobenius_character


@contextmanager
def criterion(cid: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL")
        raise
    print(f"ACCEPTANCE {cid}: PASS ({time.perf_counter() - start:.1f}s)")


def _registry():
    checks = {c.key: c for c in all_checks("all")}
    return checks


REGISTRY = _registry()


def _assert_check(key: str) -> None:
    result = REGISTRY[key].execute()
    assert result.passed, f"{key}: {result.detail}"
    assert result.hard, f"{key} is not a hard check"


# -------------------------------------------------------------------------
# Criterion 1: printed-series reproduction, exact, each under ~60 s.

_C1_ITEMS = [
    ("c1.mean.inv_m", "intro.mean.inv_m"),
    ("c1.mean.gamma", "intro.mean.gamma"),
    ("c1.mean.inv_gamma", "intro.mean.inv_gamma"),
    ("c1.var.inv_m", "intro.var.inv_m"),
    ("c1.var.gamma", "intro.var.gamma"),
    ("c1.var.inv_gamma", "intro.var.inv_gamma"),
    ("c1.trace2.inv_m", "section3.trace2.inv_m"),
    ("c1.trace2.inv_m.crossval", "section3.trace2.m2.crossval"),
    ("c1.tracesq.inv_m", "section3.tracesq.inv_m"),
    ("c1.k3.inv_m.leading", "intro.k3.leading"),
    ("c1.k3.inv_m.crossval", "section3.k3.crossval"),
    ("c1.trace2.gamma", "section4.trace2.gamma"),
    ("c1.tracesq.gamma", "section4.tracesq.gamma"),
    ("c1.k3.gamma", "section4.k3.gamma"),
    ("c1.k4.gamma", "section4.k4.gamma"),
    ("c1.trace2.inv_gamma", "section5.trace2.inv_gamma"),
    ("c1.tracesq.inv_gamma", "section5.tracesq.inv_gamma"),
    ("c1.k3.inv_gamma", "section5.k3.inv_gamma"),
    ("c1.k4.inv_gamma", "section5.k4.inv_gamma"),
]


@pytest.mark.parametrize("cid,key", _C1_ITEMS, ids=[c for c, _ in _C1_ITEMS])
def test_criterion_1_printed_series(cid, key):
    with criterion(cid):
        start = time.perf_counter()
        _assert_check(key)
        assert time.perf_counter() - start < 60


def test_criterion_1_trace2_m2_informational():
    # The defective reference string for this coefficient happens to match
    # the cross-validated value once its stray parenthesis is dropped.
    result = REGISTRY["section3.trace2.m2.printed"].execute()
    print(f"ACCEPTANCE c1.trace2.m2.printed: "
          f"{'MATCHES' if result.passed else 'DIFFERS'} ({result.detail})")


@pytest.mark.xfail(strict=True,
                   reason="reference string defect: the weak-absorption mean "
                          "is printed with a positive linear term, which "
                          "contradicts the slope relation, the printed "
                          "second-moment series and the large-M limit")
def test_criterion_1_mean_gamma_literal_printed_form():
    series = _wigner_moment(1, VAR_GAMMA, 1)
    printed_slope = RationalFunction(Polynomial(SYM_M, (0, 0, 1)),
                                     Polynomial(SYM_M, (-1, 0, 1)))
    assert series.coefficient(1) == printed_slope


@pytest.mark.xfail(strict=True,
                   reason="reference string defect: the printed 1/M^4 "
                          "coefficient of the third cumulant carries a "
                          "spurious absorption pole and a garbled tail")
def test_criterion_1_k3_inv_m_literal_printed_form():
    one_plus_g = Polynomial(SYM_G, (1, 1))
    printed = RationalFunction(
        Polynomial(SYM_G, (8, 64, 221, 420, 348, 48, -26, 8, -2)),
        Polynomial(SYM_G, (0, 0, 0, 1)) * one_plus_g**11)
    assert _cumulant(3, VAR_INV_M, 4).coefficient(4) == printed


@pytest.mark.xfail(strict=True,
                   reason="reference string defect: the printed weak-"
                          "absorption fourth cumulant carries a stray "
                          "absorption factor (the expression is the g^0 "
                          "coefficient, as the slope relation requires)")
def test_criterion_1_k4_gamma_literal_printed_form():
    expr = RationalFunction(
        Polynomial(SYM_M, (-924, 0, 636)),
        Polynomial(SYM_M, (-1, 0, 1))**2 * Polynomial(SYM_M, (-4, 0, 1))
        * Polynomial(SYM_M, (-9, 0, 1)))
    assert _cumulant(4, VAR_GAMMA, 1).coefficient(1) == expr


# -------------------------------------------------------------------------
# Criterion 2: exact limit checks.

def test_criterion_2_limits():
    with criterion("c2.limits"):
        mean = _wigner_moment(1, VAR_INV_M, 0)
        assert mean.coefficient(0) == RationalFunction(
            Polynomial(SYM_G, (1,)), Polynomial(SYM_G, (1, 1)))
        _assert_check("intro.limit.weak")
        _assert_check("intro.limit.strong")
        _assert_check("section4.absorption_free")


# -------------------------------------------------------------------------
# Criterion 3: oracle equivalence for characters and LR coefficients.

def test_criterion_3_characters_vs_alternant_oracle():
    with criterion("c3.characters"):
        start = time.perf_counter()
        for n in range(0, 6):
            for mu in enumerate_partitions(n):
                for beta in enumerate_partitions(n):
                    assert character(mu, beta) == \
                        frobenius_character(mu.parts, beta.parts)
        assert time.perf_counter() - start < 10


def test_criterion_3_lr_vs_polynomial_products():
    with criterion("c3.lr"):
        start = time.perf_counter()
        nvars = 8
        for wa in range(0, 9):
            for wb in range(0, 9 - wa):
                for mu in enumerate_partitions(wa):
                    for rho in enumerate_partitions(wb):
                        fast = schur_product(mu.parts, rho.parts)
                        slow = brute_schur_product(mu.parts, rho.parts, nvars)
                        assert fast == slow, (mu, rho)
        assert time.perf_counter() - start < 60


# -------------------------------------------------------------------------
# Criterion 4: identity suites.

def test_criterion_4_character_orthogonality():
    with criterion("c4.orthogonality"):
        from math import factorial

        for m in range(1, 8):
            rows = {b.parts: character_row(b.parts)
                    for b in enumerate_partitions(m)}
            shapes = [p.parts for p in enumerate_partitions(m)]
            for i, mu in enumerate(shapes):
                for nu in shapes[i:]:
                    total = sum(class_size(b) * rows[b].get(mu, 0)
                                * rows[b].get(nu, 0) for b in rows)
                    assert total == (factorial(m) if mu == nu else 0)


def test_criterion_4_binomial_transform_vanishing():
    with criterion("c4.binomial_vanishing"):
        from math import factorial

        from delaymoments.engine import binomial_determinant, rising_factorial
        from delaymoments.partitions import dimension, subpartitions

        for w in range(1, 6):
            for lam in enumerate_partitions(w):
                total = Polynomial(SYM_M, ())
                for mu in subpartitions(lam):
                    term = binomial_determinant(lam, mu) \
                        * rising_factorial(mu) \
                        * Fraction(dimension(mu), factorial(mu.weight))
                    total = total + ((-term) if mu.weight % 2 else term)
                assert total.is_zero, lam


def test_criterion_4_moment_cumulant_round_trip():
    with criterion("c4.moment_cumulant"):
        for regime, order in ((VAR_INV_M, 4), (VAR_GAMMA, 2),
                              (VAR_INV_GAMMA, 8)):
            cums = {j: _cumulant(j, regime, order) for j in range(1, 5)}
            for n in range(1, 5):
                rebuilt = moments_from_cumulants(cums, n)
                direct = _wigner_moment(n, regime, order)
                lo = max(rebuilt.min_power, direct.min_power)
                hi = min(rebuilt.order, direct.order)
                for p in range(lo, hi + 1):
                    assert rebuilt.coefficient(p) == direct.coefficient(p)


# -------------------------------------------------------------------------
# Criterion 5: cross-regime numeric consistency.

def _first_omitted(series_hi, order_lo: int, m_value, gamma_value) -> Fraction:
    x = {VAR_INV_M: Fraction(1) / m_value, VAR_GAMMA: Fraction(gamma_value),
         VAR_INV_GAMMA: Fraction(1) / gamma_value}[series_hi.variable]
    # inv-m coefficients are rational in g, the others in M.
    c_at = m_value if series_hi.coefficient_symbol == SYM_M else gamma_value
    for p in range(order_lo + 1, series_hi.order + 1):
        c = series_hi.coefficient(p)
        if not c.is_zero:
            return abs(c.evaluate(c_at)) * abs(x) ** p
    return Fraction(0)


@pytest.mark.parametrize("stat_n", [1, 2], ids=["mean", "k2"])
def test_criterion_5_cross_regime(stat_n):
    with criterion(f"c5.{'mean' if stat_n == 1 else 'k2'}"):
        compute = (lambda r, o: _wigner_moment(1, r, o)) if stat_n == 1 \
            else (lambda r, o: _cumulant(2, r, o))
        m_val = Fraction(20)

        # Strong absorption point: inv_M orders 6/8 vs inv_gamma orders 10/12.
        g_val = Fraction(2)
        im = {o: compute(VAR_INV_M, o) for o in (6, 8)}
        ig = {o: compute(VAR_INV_GAMMA, o) for o in (10, 12)}
        d_low = abs(im[6].evaluate(m_val, g_val) - ig[10].evaluate(m_val, g_val))
        d_high = abs(im[8].evaluate(m_val, g_val) - ig[12].evaluate(m_val, g_val))
        bound = max(_first_omitted(im[8], 6, m_val, g_val),
                    _first_omitted(ig[12], 10, m_val, g_val))
        assert d_low <= 10 * bound
        assert d_high < d_low

        # Weak absorption point: inv_M orders 6/8 vs gamma orders 6/8.
        g_val = Fraction(1, 10)
        ga = {o: compute(VAR_GAMMA, o) for o in (6, 8)}
        e_low = abs(im[6].evaluate(m_val, g_val) - ga[6].evaluate(m_val, g_val))
        e_high = abs(im[8].evaluate(m_val, g_val) - ga[8].evaluate(m_val, g_val))
        bound = max(_first_omitted(im[8], 6, m_val, g_val),
                    _first_omitted(ga[8], 6, m_val, g_val))
        assert e_low <= 10 * bound
        assert e_high < e_low


# -------------------------------------------------------------------------
# Criterion 6: conjecture report for n <= 4.

def test_criterion_6_conjectures():
    with criterion("c6.conjectures"):
        results = validate_conjectures(4)
        failures = [res.line() for res in results if not res.passed]
        for line in failures:
            print(f"  finding: {line}")
        assert results and not failures, failures
