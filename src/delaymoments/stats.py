"""Physically named statistics built on the Schur-moment engine.

Trace-power moments come from Schur moments through symmetric-group
characters, the normalized time delay tau_W = Tr(Q)/M has moments given by
dimension-weighted Schur moments, and cumulants follow from the standard
moment-cumulant recursion.  Everything stays in exact series arithmetic.

`STATISTICS` declares each statistic the command line offers once: its
selector (the CLI flag and the JSON `kind`), the argument it takes, its
title, its flag help and its compute function.  `StatisticRequest`
validates a request against its row.  `Check` is the one check type of the
reference registry and the conjecture validators, and `SCOPES` names the
groups `verify` runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

from .algebra import (
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    VARIABLES,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    operand_order,
    require_int,
)
from .engine import delay_schur_moment
from .partitions import (
    Partition,
    PartitionLike,
    as_parts,
    character_row,
)


# namedtuple's `_make`, and `_replace` through it, build the tuple without
# calling `__new__`; a validating record routes both through its constructor.
_validating_make = classmethod(lambda cls, fields: cls(*fields))


class RegimeRequest(namedtuple("RegimeRequest", "regime order")):
    """Which expansion to compute and how many guaranteed powers to emit."""

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, regime: str, order: int):
        if regime not in VARIABLES:
            raise ValueError(f"unknown regime {regime!r}")
        require_int("order", order)
        if order < 0:
            raise ValueError("order must be non-negative")
        return super().__new__(cls, regime, order)


class StatisticRequest(namedtuple("StatisticRequest", "kind request partition n")):
    """A statistic to compute: its `STATISTICS` kind, the one argument that
    kind takes (`partition` or `n`, else neither) and the regime request.

    A partition is stored through `as_parts`, so a list becomes a
    `Partition`."""

    __slots__ = ()
    _make = _validating_make

    def __new__(cls, kind: str, request: RegimeRequest,
                partition: Partition | None = None, n: int | None = None):
        if kind not in STATISTICS:
            raise ValueError(f"unknown statistic kind {kind!r}")
        takes = STATISTICS[kind].argument
        for name, value in (("partition", partition), ("n", n)):
            if name != takes and value is not None:
                raise ValueError(f"{kind} takes no {name}")
        if takes == "partition":
            if partition is not None:
                partition = as_parts(partition)
            if not partition:
                raise ValueError(f"{kind} needs a non-empty partition")
        if takes == "n":
            require_int("n", n)
            if n < 1:
                raise ValueError(f"{kind} needs n >= 1")
        return super().__new__(cls, kind, request, partition, n)


def power_sum_moment(lam: PartitionLike, req: RegimeRequest) -> TruncatedSeries:
    """Moment of the product of traces Tr(Q^lam_i), via the character
    expansion of power sums in the Schur basis."""
    lp = as_parts(lam)
    if not lp:
        raise ValueError("power sums need a non-empty partition")
    total = None
    for mu, chi in character_row(lp).items():
        term = delay_schur_moment(mu, req.regime, req.order).scale(chi)
        total = term if total is None else total + term
    assert total is not None
    return total


def _normalised_power_sum(lam: tuple[int, ...], k: int, regime: str,
                          order: int) -> TruncatedSeries:
    """<p_lam(Q)>/M**k in the requested regime."""
    series = power_sum_moment(lam, RegimeRequest(
        regime, operand_order(regime, order, m_power=-k)))
    return series.times_power(SYM_M, -k).truncate(order)


@cache
def _wigner_moment(n: int, regime: str, order: int) -> TruncatedSeries:
    return _normalised_power_sum((1,) * n, n, regime, order)


def wigner_moment(n: int, req: RegimeRequest) -> TruncatedSeries:
    """Moment of the normalized time delay: <tau_W**n> = <p_(1^n)(Q)> / M**n,
    which is the dimension-weighted sum of Schur moments over shapes of n."""
    require_int("n", n)
    if n < 1:
        raise ValueError("moment index must be >= 1")
    return _wigner_moment(n, req.regime, req.order)


@cache
def _cumulant(n: int, regime: str, order: int) -> TruncatedSeries:
    moments = {j: _wigner_moment(j, regime, order) for j in range(1, n + 1)}
    cumulants: dict[int, TruncatedSeries] = {}
    for j in range(1, n + 1):
        acc = moments[j]
        for i in range(1, j):
            acc = acc - (cumulants[i] * moments[j - i]).scale(comb(j - 1, i - 1))
        cumulants[j] = acc
    return cumulants[n].truncate(order)


def cumulant(n: int, req: RegimeRequest) -> TruncatedSeries:
    """n-th cumulant of the normalized time delay, by the moment-cumulant
    recursion in exact series arithmetic."""
    require_int("n", n)
    if n < 1:
        raise ValueError("cumulant index must be >= 1")
    return _cumulant(n, req.regime, req.order)


def variance(req: RegimeRequest) -> TruncatedSeries:
    return cumulant(2, req)


def moments_from_cumulants(cums: dict[int, TruncatedSeries], n: int) -> TruncatedSeries:
    """Rebuild the n-th moment from cumulants 1..n (round-trip check)."""
    moments: dict[int, TruncatedSeries] = {}
    for j in range(1, n + 1):
        acc = cums[j]
        for i in range(1, j):
            acc = acc + (cums[i] * moments[j - i]).scale(comb(j - 1, i - 1))
        moments[j] = acc
    return moments[n]


class Statistic(namedtuple("Statistic", "selector argument title help compute")):
    """One row of `STATISTICS`.  `argument` names the request field the
    statistic takes ("partition", "n" or None), `title` is formatted with
    the request's `partition` and `n`, and `compute` maps a
    `StatisticRequest` to its `TruncatedSeries`."""

    __slots__ = ()


# Keyed by StatisticRequest kind, in the order the CLI lists the flags.  The
# compute functions look their target up when called, so a rebinding of the
# module attribute (a tracer, a test double) is seen.
STATISTICS: dict[str, Statistic] = {
    "schur_q": Statistic(
        "schur", "partition", "Schur moment, shape {partition}",
        "Schur moment of the time-delay operator",
        lambda s: delay_schur_moment(s.partition, s.request.regime, s.request.order)),
    "power_sum": Statistic(
        "trace-powers", "partition", "trace-power moment, exponents {partition}",
        "moment of the product of traces Tr(Q^part_i)",
        lambda s: power_sum_moment(s.partition, s.request)),
    "wigner_moment": Statistic(
        "wigner-moment", "n", "Wigner time delay moment, n={n}",
        "n-th moment of the normalized time delay",
        lambda s: wigner_moment(s.n, s.request)),
    "cumulant": Statistic(
        "cumulant", "n", "Wigner time delay cumulant, n={n}",
        "n-th cumulant of the normalized time delay",
        lambda s: cumulant(s.n, s.request)),
    "variance": Statistic(
        "variance", None, "Wigner time delay variance",
        "variance of the normalized time delay",
        lambda s: variance(s.request)),
}


def compute_statistic(sreq: StatisticRequest) -> TruncatedSeries:
    return STATISTICS[sreq.kind].compute(sreq)


# --------------------------------------------------------------------------
# Checks: a named comparison run on demand; the reference registry and the
# conjectured patterns below share this one type.


# The groups of checks `verify --scope` selects; a registered check's key
# starts with its scope.
SCOPES = ("intro", "section3", "section4", "section5", "conjectures")


class CheckResult(namedtuple("CheckResult", "key scope hard passed description detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        kind = "HARD" if self.hard else "SOFT"
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} [{kind}] {self.key}: {self.description}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


class Check(namedtuple("Check", "key scope hard description run")):
    """A named check: `run()` returns (passed, detail)."""

    __slots__ = ()

    def execute(self) -> CheckResult:
        passed, detail = self.run()
        return CheckResult(self.key, self.scope, self.hard, passed,
                           self.description, detail)


def match_window(series: TruncatedSeries,
                 expected: dict[int, RationalFunction | int],
                 lo: int | None = None, hi: int | None = None) -> tuple[bool, str]:
    """Compare powers lo..hi with `expected` (absent powers must vanish); lo
    defaults to the lower of the leading and the lowest expected power, hi
    to the order of the series."""
    lo = min([series.min_power, *expected]) if lo is None else lo
    for p in range(lo, (series.order if hi is None else hi) + 1):
        want = expected.get(p, RationalFunction.constant(series.coefficient_symbol, 0))
        got = series.coefficient(p)
        if got != want:
            return False, f"power {p}: computed {got}, expected {want}"
    return True, ""


# --------------------------------------------------------------------------
# Conjectured patterns: checked exactly, reported rather than asserted.


def _rf_m(num: Polynomial | int | Fraction, den: Polynomial | int | Fraction = 1) -> RationalFunction:
    if isinstance(num, (int, Fraction)):
        num = Polynomial.constant(SYM_M, num)
    if isinstance(den, (int, Fraction)):
        den = Polynomial.constant(SYM_M, den)
    return RationalFunction(num, den)


def _trace_moment(n: int, regime: str, order: int) -> TruncatedSeries:
    """<Tr(Q**n)>/M in the requested regime."""
    return _normalised_power_sum((n,), 1, regime, order)


_M_SQ = Polynomial(SYM_M, (0, 0, 1))


def _large_m_second(n: int, extra: int) -> tuple[bool, str]:
    # 1/(1+g)^n + (n(n-1)g^2/2 - ng + n(n-1)) / ((1+g)^(n+4) M^2) + O(M^-4).
    one_plus_g = Polynomial(SYM_G, (1, 1))
    series = _wigner_moment(n, VAR_INV_M, 2 + extra)
    num = Polynomial(SYM_G, (n * (n - 1), -n, Fraction(n * (n - 1), 2)))
    expected = {0: RationalFunction(Polynomial(SYM_G, (1,)), one_plus_g ** n),
                2: RationalFunction(num, one_plus_g ** (n + 4))}
    return match_window(series, expected, hi=2)


def _trace_slope(n: int, extra: int) -> tuple[bool, str]:
    # P_n(g) = P_n(0) - (n/2) P_{n+1}(0) g + O(g^2).
    p_n = _trace_moment(n, VAR_GAMMA, 1 + extra)
    p_next = _trace_moment(n + 1, VAR_GAMMA, extra)
    expected = p_next.coefficient(0) * Fraction(-n, 2)
    return match_window(p_n, {1: expected}, 1, 1)


def _cumulant_slope(n: int, extra: int) -> tuple[bool, str]:
    # k_n(g) = k_n(0) - (M^2/2) k_{n+1}(0) g + O(g^2).
    k_n = _cumulant(n, VAR_GAMMA, 1 + extra)
    k_next = _cumulant(n + 1, VAR_GAMMA, extra)
    expected = k_next.coefficient(0) * _rf_m(_M_SQ) * Fraction(-1, 2)
    return match_window(k_n, {1: expected}, 1, 1)


def _trace_opening(n: int, extra: int) -> tuple[bool, str]:
    series = _trace_moment(n, VAR_INV_GAMMA, n + 3 + extra)
    tail_num = Polynomial(SYM_M, (n * (n + 2), 0, n * (5 * n - 2)))
    expected = {
        n: _rf_m(1), n + 1: _rf_m(-n), n + 2: _rf_m(n * n),
        n + 3: _rf_m(tail_num * Fraction(-(n + 1), 6), _M_SQ),
    }
    return match_window(series, expected, hi=n + 3)


def _wigner_opening(n: int, extra: int) -> tuple[bool, str]:
    series = _wigner_moment(n, VAR_INV_GAMMA, n + 2 + extra)
    num2 = Polynomial(SYM_M, (n * (n - 1), 0, n * (n + 1)))
    expected = {n: _rf_m(1), n + 1: _rf_m(-n),
                n + 2: _rf_m(num2 * Fraction(1, 2), _M_SQ)}
    return match_window(series, expected, hi=n + 2)


def _cumulant_tail(n: int, extra: int) -> tuple[bool, str]:
    # (-1)^n k_n = (n-1)!/(M^(2n-2) g^(2n)) - (2n-1) n (n-1)!/(M^(2n-2) g^(2n+1)) + ...
    series = _cumulant(n, VAR_INV_GAMMA, 2 * n + 1 + extra)
    sign = (-1) ** n
    m_pow = Polynomial(SYM_M, (0,) * (2 * n - 2) + (1,))
    expected = {2 * n: _rf_m(sign * factorial(n - 1), m_pow),
                2 * n + 1: _rf_m(-sign * (2 * n - 1) * n * factorial(n - 1), m_pow)}
    return match_window(series, expected, hi=2 * n + 1)


def conjecture_checks(max_n: int, order: int = 0) -> list[Check]:
    """Lazy exact checks of the five conjectured patterns, for all n <= max_n.

    `order` adds extra guaranteed powers beyond each pattern's stated window;
    the stated coefficients themselves are always checked.  The checks are
    soft: failures are findings, not errors.
    """
    require_int("max_n", max_n)
    require_int("order", order)
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if order < 0:
        raise ValueError("order must be non-negative")
    checks: list[Check] = []

    def add(key: str, description: str, run: Callable[[int, int], tuple[bool, str]],
            n: int) -> None:
        checks.append(Check(key, "conjectures", False, description,
                            partial(run, n, order)))

    ns = range(1, max_n + 1)
    # (a) Large-M pattern for the n-th power of the normalized total delay.
    for n in ns:
        add(f"a.n={n}", "large-M second coefficient of <(Tr Q)^n>/M^n",
            _large_m_second, n)
    # (b) Weak-absorption slope of trace moments.
    for n in ns:
        add(f"b.n={n}", "weak-absorption slope of <Tr Q^n>/M", _trace_slope, n)
    # (c) Weak-absorption slope of cumulants.
    for n in ns:
        add(f"c.n={n}", "weak-absorption slope of the n-th cumulant",
            _cumulant_slope, n)
    # (d) Strong-absorption openings of <Tr Q^n>/M and <(Tr Q)^n>/M^n.
    for n in ns:
        add(f"d1.n={n}", "strong-absorption opening of <Tr Q^n>/M",
            _trace_opening, n)
        add(f"d2.n={n}", "strong-absorption opening of <(Tr Q)^n>/M^n",
            _wigner_opening, n)
    # (e) Strong-absorption cumulant tail, n > 1.
    for n in range(2, max_n + 1):
        add(f"e.n={n}", "strong-absorption tail of the n-th cumulant",
            _cumulant_tail, n)
    return checks


def validate_conjectures(max_n: int, order: int = 0) -> list[CheckResult]:
    """Run every conjecture check (see `conjecture_checks`) in order."""
    return [c.execute() for c in conjecture_checks(max_n, order)]
