"""Registry of known closed-form reference series and the checks against them.

Every published result the engine is expected to reproduce is registered
here, once, in `_CHECKS`, with its exact expected coefficients.  A check's
key starts with its scope (one of `stats.SCOPES`, the groups the `verify`
command runs), and its scope is read from that prefix.  Hard checks gate
the run; soft checks record the comparison against reference strings that
carry known typographic defects (three of them, each cross-validated
against the other two regimes and the exactly known slope relations; see
the check descriptions).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import factorial

from .algebra import (
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
)
from .engine import reflection_schur_moment, rising_factorial
from .partitions import dimension, enumerate_partitions
from .stats import (
    Check,
    RegimeRequest,
    _trace_moment,
    conjecture_checks,
    cumulant,
    match_window,
    wigner_moment,
)


def _pg(*coeffs) -> Polynomial:
    return Polynomial(SYM_G, coeffs)


def _pm(*coeffs) -> Polynomial:
    return Polynomial(SYM_M, coeffs)


def _rf(num: Polynomial, den: Polynomial | int = 1) -> RationalFunction:
    return RationalFunction(num, den)


_ONE_PLUS_G = _pg(1, 1)


def _hard_check(key: str, description: str,
                run: Callable[[], tuple[bool, str]]) -> Check:
    """A check whose failure fails `verify`, scoped by its key's prefix."""
    return Check(key, key.split(".", 1)[0], True, description, run)


def _soft_check(key: str, description: str,
                run: Callable[[], tuple[bool, str]]) -> Check:
    """A check whose failure is a finding, scoped by its key's prefix."""
    return Check(key, key.split(".", 1)[0], False, description, run)


def _series_check(key: str, description: str,
                  compute: Callable[[], TruncatedSeries],
                  expected: dict[int, RationalFunction]) -> Check:
    """Match the computed series with `expected` through its order."""
    return _hard_check(key, description, lambda: match_window(compute(), expected))


# Frozen cross-validated value of the leading 1/M^4 coefficient of the third
# cumulant.  Its expansions reproduce the weak-absorption third cumulant
# (value 24, slope -318 at the 1/M^4 order) and the strong-absorption tail
# (-2/g^6 + 30/g^7), all of which are independently published; the reference
# string for this quantity is garbled in print and is kept as a soft check.
_K3_INV_M_COEFF = _rf(_pg(24, -54, 48, -26, 8, -2), _ONE_PLUS_G**11)

# Printed form of the same quantity (defective: spurious 1/g^3 pole and a
# garbled low-order tail).
_K3_PRINTED = _rf(_pg(8, 64, 221, 420, 348, 48, -26, 8, -2),
                  _pg(0, 0, 0, 1) * _ONE_PLUS_G**11)

# Denominators of the weak- and strong-absorption series.
_M2 = _pm(0, 0, 1)
_DEN22 = _pm(-1, 0, 1) * _pm(-4, 0, 1)
_DEN_K34 = (_pm(-1, 0, 1))**2 * _pm(-4, 0, 1) * _pm(-9, 0, 1)

# Weak-absorption fourth cumulant: the printed expression carries a stray
# factor of the absorption strength; the expression itself is the exact
# zeroth coefficient (it equals -2/M^2 times the third cumulant's slope, and
# cross-regime numerics agree).
_K4_GAMMA_0 = _rf(_pm(-924, 0, 636), _DEN_K34)


# (expansion variable, expected constants by power, last power checked)
_Window = tuple[str, dict[int, int], int]


def _expansion_match(coeff: RationalFunction,
                     windows: tuple[_Window, ...]) -> tuple[bool, str]:
    """Expand `coeff` in each (variable, expected, hi) window and match it
    through hi in `match_window`'s default window."""
    for variable, expected, hi in windows:
        ok, detail = match_window(coeff.expand(variable, hi), expected)
        if not ok:
            return False, f"{variable} expansion, {detail}"
    return True, ""


def _expansion_check(key: str, description: str,
                     coefficient: Callable[[], RationalFunction],
                     windows: tuple[_Window, ...]) -> Check:
    return _hard_check(key, description,
                       lambda: _expansion_match(coefficient(), windows))


def _mean_gamma_printed() -> tuple[bool, str]:
    series = wigner_moment(1, RegimeRequest(VAR_GAMMA, 2))
    printed = _rf(_pm(0, 0, 1), _pm(-1, 0, 1))
    got = series.coefficient(1)
    ok = got == printed
    return ok, ("" if ok else
                f"computed slope {got}; reference string has the opposite "
                f"sign, which contradicts the slope relation, the weak-"
                f"absorption second-moment series and the large-M limit")


def _variance_m2() -> RationalFunction:
    return cumulant(2, RegimeRequest(VAR_INV_M, 2)).coefficient(2)


def _trace2_m2_printed() -> tuple[bool, str]:
    c = _trace_moment(2, VAR_INV_M, 2).coefficient(2)
    printed = _rf(_pg(2, -14, 1, -4), _ONE_PLUS_G**8)
    ok = c == printed
    return ok, ("matches the reference string (stray parenthesis aside)"
                if ok else f"computed {c}, reference string {printed}")


def _k3_crossval() -> tuple[bool, str]:
    c = cumulant(3, RegimeRequest(VAR_INV_M, 4)).coefficient(4)
    if c != _K3_INV_M_COEFF:
        return False, f"computed {c}, cross-validated form {_K3_INV_M_COEFF}"
    return _expansion_match(c, ((VAR_GAMMA, {0: 24, 1: -318}, 1),
                                (VAR_INV_GAMMA, {6: -2, 7: 30}, 7)))


def _k3_printed() -> tuple[bool, str]:
    c = cumulant(3, RegimeRequest(VAR_INV_M, 4)).coefficient(4)
    ok = c == _K3_PRINTED
    return ok, ("" if ok else
                f"computed {c}; the reference string carries a spurious "
                f"1/g^3 pole and a garbled tail (its small-g limit "
                f"diverges, contradicting the weak-absorption value 24)")


def _k4_printed() -> tuple[bool, str]:
    series = cumulant(4, RegimeRequest(VAR_GAMMA, 1))
    got0, got1 = series.coefficient(0), series.coefficient(1)
    ok = got1 == _K4_GAMMA_0
    return ok, (f"computed g^0 = {got0}, g^1 = {got1}; the reference "
                f"expression equals the g^0 coefficient (the slope "
                f"relation with the third cumulant requires this), so "
                f"its stray absorption factor is a known defect")


def _absorption_free() -> tuple[bool, str]:
    for w in range(0, 5):
        for mu in enumerate_partitions(w):
            series = reflection_schur_moment(mu, VAR_GAMMA, 0)
            expected = RationalFunction(
                rising_factorial(mu) * Fraction(dimension(mu), factorial(w)))
            if series.coefficient(0) != expected:
                return False, f"shape {mu}: {series.coefficient(0)} != {expected}"
    return True, ""


# Every registered check but the conjectures, in registration order.
_CHECKS: tuple[Check, ...] = (
    _series_check(
        "intro.mean.inv_m",
        "mean time delay, many channels: 1/(1+g) - g/((1+g)^5 M^2) - "
        "g(8g^2-12g+1)/((1+g)^9 M^4) + O(M^-6)",
        lambda: wigner_moment(1, RegimeRequest(VAR_INV_M, 5)),
        {0: _rf(_pg(1), _ONE_PLUS_G),
         2: _rf(_pg(0, -1), _ONE_PLUS_G**5),
         4: _rf(_pg(0, -1, 12, -8), _ONE_PLUS_G**9)}),
    _series_check(
        "intro.mean.gamma",
        "mean time delay, weak absorption: 1 - g M^2/(M^2-1) + "
        "g^2 M^4/((M^2-1)(M^2-4)) + O(g^3)",
        lambda: wigner_moment(1, RegimeRequest(VAR_GAMMA, 2)),
        {0: _rf(_pm(1)),
         1: _rf(_pm(0, 0, -1), _pm(-1, 0, 1)),
         2: _rf(_pm(0, 0, 0, 0, 1), _DEN22)}),
    _soft_check(
        "intro.mean.gamma.printed",
        "reference string for the weak-absorption mean (known sign defect "
        "in its linear term)", _mean_gamma_printed),
    _series_check(
        "intro.mean.inv_gamma",
        "mean time delay, strong absorption: 1/g - 1/g^2 + 1/g^3 - "
        "(M^2+1)/(M^2 g^4) + (M^2+5)/(M^2 g^5) + O(g^-6)",
        lambda: wigner_moment(1, RegimeRequest(VAR_INV_GAMMA, 5)),
        {1: _rf(_pm(1)), 2: _rf(_pm(-1)), 3: _rf(_pm(1)),
         4: _rf(_pm(-1, 0, -1), _M2),
         5: _rf(_pm(5, 0, 1), _M2)}),
    _series_check(
        "intro.var.inv_m",
        "variance, many channels: (g^2+2)/((1+g)^6 M^2) + "
        "(8g^4-28g^3+68g^2-40g+2)/((1+g)^10 M^4) + O(M^-6)",
        lambda: cumulant(2, RegimeRequest(VAR_INV_M, 5)),
        {2: _rf(_pg(2, 0, 1), _ONE_PLUS_G**6),
         4: _rf(_pg(2, -40, 68, -28, 8), _ONE_PLUS_G**10)}),
    _series_check(
        "intro.var.gamma",
        "variance, weak absorption: 2/(M^2-1) - "
        "12 g M^2/((M^2-1)(M^2-4)) + O(g^2)",
        lambda: cumulant(2, RegimeRequest(VAR_GAMMA, 1)),
        {0: _rf(_pm(2), _pm(-1, 0, 1)),
         1: _rf(_pm(0, 0, -12), _DEN22)}),
    _series_check(
        "intro.var.inv_gamma",
        "variance, strong absorption: 1/(M^2 g^4) - 6/(M^2 g^5) + "
        "(23M^2+8)/(M^4 g^6) + O(g^-7)",
        lambda: cumulant(2, RegimeRequest(VAR_INV_GAMMA, 6)),
        {4: _rf(_pm(1), _M2),
         5: _rf(_pm(-6), _M2),
         6: _rf(_pm(8, 0, 23), _pm(0, 0, 0, 0, 1))}),
    _series_check(
        "intro.k3.leading",
        "third cumulant, leading 1/M^4 coefficient (cross-validated form)",
        lambda: cumulant(3, RegimeRequest(VAR_INV_M, 4)),
        {4: _K3_INV_M_COEFF}),
    _expansion_check(
        "intro.limit.weak",
        "weak-absorption limit of the variance: 2(1-6g)/M^2", _variance_m2,
        ((VAR_GAMMA, {0: 2, 1: -12}, 1),)),
    _expansion_check(
        "intro.limit.strong",
        "strong-absorption limit of the variance: 1/(M^2 g^4)", _variance_m2,
        ((VAR_INV_GAMMA, {4: 1}, 4),)),

    _series_check(
        "section3.trace2.inv_m",
        "<Tr Q^2>/M, many channels: (g^2+2g+2)/(1+g)^4 - "
        "(4g^3-g^2+14g-2)/((1+g)^8 M^2) + O(M^-4)",
        lambda: _trace_moment(2, VAR_INV_M, 3),
        {0: _rf(_pg(2, 2, 1), _ONE_PLUS_G**4),
         2: _rf(_pg(2, -14, 1, -4), _ONE_PLUS_G**8)}),
    # The 1/M^2 coefficient of <Tr Q^2>/M double-expanded must match the
    # 1/M^2 parts of the weak- and strong-absorption second moments.
    _expansion_check(
        "section3.trace2.m2.crossval",
        "1/M^2 coefficient of <Tr Q^2>/M agrees with the weak- and "
        "strong-absorption second moments",
        lambda: _trace_moment(2, VAR_INV_M, 2).coefficient(2),
        ((VAR_GAMMA, {0: 2, 1: -30}, 1), (VAR_INV_GAMMA, {5: -4}, 5))),
    _soft_check(
        "section3.trace2.m2.printed",
        "reference string for the 1/M^2 coefficient of <Tr Q^2>/M "
        "(typographic defect: unbalanced parenthesis)", _trace2_m2_printed),
    _series_check(
        "section3.tracesq.inv_m",
        "<(Tr Q)^2>/M^2, many channels: 1/(1+g)^2 + "
        "(g^2-2g+2)/((1+g)^6 M^2) + (8g^4-44g^3+93g^2-42g+2)/((1+g)^10 M^4)",
        lambda: wigner_moment(2, RegimeRequest(VAR_INV_M, 5)),
        {0: _rf(_pg(1), _ONE_PLUS_G**2),
         2: _rf(_pg(2, -2, 1), _ONE_PLUS_G**6),
         4: _rf(_pg(2, -42, 93, -44, 8), _ONE_PLUS_G**10)}),
    _hard_check(
        "section3.k3.crossval",
        "1/M^4 coefficient of the third cumulant double-expands to the "
        "published weak- and strong-absorption third cumulants", _k3_crossval),
    _soft_check(
        "section3.k3.printed",
        "reference string for the third cumulant's 1/M^4 coefficient "
        "(known defect)", _k3_printed),

    _series_check(
        "section4.trace2.gamma",
        "<Tr Q^2>/M, weak absorption: 2M^2/(M^2-1) - "
        "6 g M^4/((M^2-1)(M^2-4)) + O(g^2)",
        lambda: _trace_moment(2, VAR_GAMMA, 1),
        {0: _rf(_pm(0, 0, 2), _pm(-1, 0, 1)),
         1: _rf(_pm(0, 0, 0, 0, -6), _DEN22)}),
    _series_check(
        "section4.tracesq.gamma",
        "<(Tr Q)^2>/M^2, weak absorption: (M^2+1)/(M^2-1) - "
        "2 g M^2(M^2+2)/((M^2-1)(M^2-4)) + O(g^2)",
        lambda: wigner_moment(2, RegimeRequest(VAR_GAMMA, 1)),
        {0: _rf(_pm(1, 0, 1), _pm(-1, 0, 1)),
         1: _rf(_pm(0, 0, -4, 0, -2), _DEN22)}),
    _series_check(
        "section4.k3.gamma",
        "third cumulant, weak absorption: 24/((M^2-1)(M^2-4)) - "
        "6 g M^2(53M^2-77)/((M^2-1)^2(M^2-4)(M^2-9)) + O(g^2)",
        lambda: cumulant(3, RegimeRequest(VAR_GAMMA, 1)),
        {0: _rf(_pm(24), _DEN22),
         1: _rf(_pm(0, 0, 462, 0, -318), _DEN_K34)}),
    _series_check(
        "section4.k4.gamma",
        "fourth cumulant, weak absorption: 12(53M^2-77)/"
        "((M^2-1)^2(M^2-4)(M^2-9)) + O(g)",
        lambda: cumulant(4, RegimeRequest(VAR_GAMMA, 0)),
        {0: _K4_GAMMA_0}),
    _soft_check(
        "section4.k4.printed",
        "reference string places the fourth cumulant's opening at linear "
        "order (known defect: the expression is the constant term)",
        _k4_printed),
    _hard_check(
        "section4.absorption_free",
        "zeroth weak-absorption coefficients equal the absorption-free "
        "moments (dimension times rising factorial over weight factorial)",
        _absorption_free),

    _series_check(
        "section5.trace2.inv_gamma",
        "<Tr Q^2>/M, strong absorption: 1/g^2 - 2/g^3 + 4/g^4 - "
        "4(2M^2+1)/(M^2 g^5) + O(g^-6)",
        lambda: _trace_moment(2, VAR_INV_GAMMA, 5),
        {2: _rf(_pm(1)), 3: _rf(_pm(-2)), 4: _rf(_pm(4)),
         5: _rf(_pm(-4, 0, -8), _M2)}),
    _series_check(
        "section5.tracesq.inv_gamma",
        "<(Tr Q)^2>/M^2, strong absorption: 1/g^2 - 2/g^3 + "
        "(3M^2+1)/(M^2 g^4) - 4(M^2+2)/(M^2 g^5) + O(g^-6)",
        lambda: wigner_moment(2, RegimeRequest(VAR_INV_GAMMA, 5)),
        {2: _rf(_pm(1)), 3: _rf(_pm(-2)),
         4: _rf(_pm(1, 0, 3), _M2),
         5: _rf(_pm(-8, 0, -4), _M2)}),
    _series_check(
        "section5.k3.inv_gamma",
        "third cumulant, strong absorption: -2/(M^4 g^6) + 30/(M^4 g^7) - "
        "6(41M^2+10)/(M^6 g^8) + O(g^-9)",
        lambda: cumulant(3, RegimeRequest(VAR_INV_GAMMA, 8)),
        {6: _rf(_pm(-2), _pm(0, 0, 0, 0, 1)),
         7: _rf(_pm(30), _pm(0, 0, 0, 0, 1)),
         8: _rf(_pm(-60, 0, -246), _pm(0, 0, 0, 0, 0, 0, 1))}),
    _series_check(
        "section5.k4.inv_gamma",
        "fourth cumulant, strong absorption: 6/(M^6 g^8) - "
        "168/(M^6 g^9) + O(g^-10)",
        lambda: cumulant(4, RegimeRequest(VAR_INV_GAMMA, 9)),
        {8: _rf(_pm(6), _pm(0, 0, 0, 0, 0, 0, 1)),
         9: _rf(_pm(-168), _pm(0, 0, 0, 0, 0, 0, 1))}),
)


def all_checks(scope: str = "all") -> list[Check]:
    """Registered checks for one scope (or all), in registration order.
    The conjecture checks cover n <= 4."""
    conjectures = [c._replace(key=f"conjectures.{c.key}")
                   for c in conjecture_checks(4)]
    return [c for c in (*_CHECKS, *conjectures) if scope in ("all", c.scope)]
