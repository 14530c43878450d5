"""The three asymptotic expansions of the absorbing-cavity Schur moments.

A sub-unitary reflection matrix R encodes the absorption; the time-delay
operator is Q = (1 - R)/g with g the absorption strength (dwell time is the
time unit, so g is the dwell-to-absorption time ratio).  Local energy
averages of Schur polynomials in R admit three expansions:

* `inv_M`    - powers of 1/M (many open channels), coefficients rational in g;
* `gamma`    - powers of g (weak absorption), coefficients rational in M;
* `inv_gamma`- powers of 1/g (strong absorption), coefficients rational in M.

Moments of Q follow from moments of R through a binomial-determinant change
of basis carrying an explicit 1/g**|lambda| prefactor.  All sums over
partitions are truncated with provably sufficient bounds, so every emitted
coefficient is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

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
)
from .partitions import (
    PartitionLike,
    as_parts,
    class_size,
    content_product,
    dimension,
    durfee,
    enumerate_partitions,
    schur_product,
    skew_contents,
    skew_tableaux,
    strip_expansion,
    subpartitions,
)


class InternalConsistencyError(RuntimeError):
    """A structurally guaranteed cancellation failed; signals a bug."""


def rising_factorial(mu: PartitionLike) -> Polynomial:
    """Cell-content form of the generalized rising factorial: the product of
    (M + content) over the Young diagram; 1 for the empty shape."""
    return Polynomial.from_roots(SYM_M, (-c for c in skew_contents(mu)))


def falling_factorial(rho: PartitionLike) -> Polynomial:
    """Generalized falling factorial: row i contributes the product of
    (M + i - t) for t = 1..rho_i (rows 1-based), that is (M - content) over
    the Young diagram; 1 for the empty shape."""
    return Polynomial.from_roots(SYM_M, skew_contents(rho))


def absorption_weight(beta: PartitionLike) -> Polynomial:
    """Product of (1 + q*g) over the cycle lengths q of beta."""
    p = Polynomial.constant(SYM_G, 1)
    for q in as_parts(beta):
        p = p * Polynomial(SYM_G, (1, q))
    return p


def binomial_determinant(lam: PartitionLike, mu: PartitionLike) -> Polynomial:
    """Change-of-basis coefficient between Schur moments of Q and of R: the
    determinant of binomial(M + lam_i - i, M + mu_j - j), with mu padded by
    zeros to the length of lam.  Requires mu inside lam.

    In closed form it is f/|lam/mu|! times the product of (M + content) over
    the cells of lam/mu, where f counts the standard tableaux of lam/mu.
    """
    lp, mp = as_parts(lam), as_parts(mu)
    contents = skew_contents(lp, mp)
    return Polynomial.from_roots(SYM_M, (-c for c in contents)) * Fraction(
        skew_tableaux(lp, mp), factorial(len(contents)))


def geometric_determinant(mu: PartitionLike, rho: PartitionLike) -> int:
    """Integer determinant of binomial(rho_i - i, mu_j - j), padded with
    zeros to the length of rho; the coefficients of the partition-indexed
    generalization of the geometric series.  Requires mu inside rho.

    It is `binomial_determinant(rho, mu)` at M = 0, so it vanishes exactly
    when rho/mu has a diagonal cell, that is when the Durfee squares differ.
    """
    mp, rp = as_parts(mu), as_parts(rho)
    contents = skew_contents(rp, mp)
    c_prod = prod(contents)
    if not c_prod:
        return 0
    return c_prod * skew_tableaux(rp, mp) // factorial(len(contents))


@cache
def _dim_content_weight(parts: tuple[int, ...]) -> int:
    t = content_product(parts)
    return dimension(parts) * t * t


@cache
def _durfee_weighted_sum(a: tuple[int, ...], b: tuple[int, ...], target: int) -> int:
    """Sum of dimension * content_product**2 over the Durfee-bounded Schur
    product s_a * s_b, restricted to results whose Durfee square has side
    `target`."""
    total = 0
    for nu, mult in schur_product(a, b, target).items():
        if durfee(nu) == target:
            total += mult * _dim_content_weight(nu)
    return total


def durfee_filtered_lr_sum(mu: PartitionLike, rho: PartitionLike) -> int:
    """The nested sum of the gamma and inv-gamma expansions: over shapes nu
    in s_mu * s_rho with the same Durfee square as mu, weighted by
    dimension(nu) * content_product(nu)**2."""
    mp, rp = as_parts(mu), as_parts(rho)
    return _durfee_weighted_sum(mp, rp, durfee(mp))


def reflection_schur_moment(mu: PartitionLike, regime: str, order: int) -> TruncatedSeries:
    """Schur moment of the reflection matrix R in the requested regime.

    The returned series is exact for every power up to `order`.
    """
    mp = as_parts(mu)
    if regime == VAR_INV_M:
        return _reflection_inv_m(mp, order)
    if regime == VAR_GAMMA:
        return _reflection_gamma(mp, order)
    if regime == VAR_INV_GAMMA:
        return _reflection_inv_gamma(mp, order)
    raise ValueError(f"unknown regime {regime!r}")


@cache
def _reflection_inv_m(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Large-M expansion: the square of the rising factorial times a sum over
    one-free cycle types beta of weight m, each contributing at 1/M power
    |mu| + m - length(beta) a coefficient rational in g with denominator a
    power of (1+g).

    Each coefficient sums dimension * content_product**2 over the strip
    expansion of s_mu * p_beta bounded at mu's Durfee square; strips only add
    cells, so every kept shape has exactly that square.
    Cycle types without fixed points satisfy length <= m/2, so weights
    m <= 2*(order + |mu|) exhaust every term that can touch powers <= order.
    """
    n = sum(mp)
    t_sq = content_product(mp) ** 2
    inv_one_plus_g = RationalFunction(Polynomial.constant(SYM_G, 1),
                                      Polynomial(SYM_G, (1, 1)))
    d_mu = durfee(mp)

    # Group terms by the 1/M power of the bare sum before the prefactor.
    grouped: dict[int, RationalFunction] = {}
    for m in range(0, 2 * (order + n) + 1):
        for beta in enumerate_partitions(m, forbid_part_one=True):
            ell = len(beta)
            exponent = n + m - ell
            if exponent - 2 * n > order:
                continue
            inner = sum(c * _dim_content_weight(nu)
                        for nu, c in strip_expansion(mp, beta, d_mu).items())
            if not inner:
                continue
            scalar = Fraction((-1) ** ell * class_size(beta) * inner,
                              factorial(m) * factorial(n + m) * t_sq)
            coeff = (RationalFunction(absorption_weight(beta))
                     * inv_one_plus_g ** (n + m) * scalar)
            grouped[exponent] = grouped.get(exponent,
                                            RationalFunction.constant(SYM_G, 0)) + coeff

    bare = TruncatedSeries(VAR_INV_M, grouped, order + 2 * n)
    return bare.times_m_polynomial(rising_factorial(mp) ** 2)


@cache
def _reflection_gamma(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Weak-absorption expansion: coefficient of g**m sums dimension over
    generalized falling factorial across partitions rho of m, so every
    coefficient is exact on its own.

    The rho sum goes over one denominator of known roots, the cell contents
    of the rho, together with the prefactor rising_factorial(mu) * M**m."""
    n = sum(mp)
    rising_roots = [-c for c in skew_contents(mp)]
    t_sq = content_product(mp) ** 2
    d_mu = durfee(mp)
    coeffs: dict[int, RationalFunction] = {}
    for m in range(order + 1):
        terms = []
        for rho in enumerate_partitions(m):
            s = _durfee_weighted_sum(mp, rho, d_mu)
            if s:
                terms.append((dimension(rho) * s, (), skew_contents(rho)))
        coeffs[m] = RationalFunction.from_root_terms(
            SYM_M, terms, Fraction((-1) ** m, t_sq * factorial(m) * factorial(n + m)),
            num_roots=rising_roots + [0] * m)
    return TruncatedSeries(VAR_GAMMA, coeffs, order, min_power=0)


@cache
def _reflection_inv_gamma(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Strong-absorption expansion: the coefficient of 1/g**k sums over pairs
    (rho containing mu, omega) with |rho| + |omega| = k; every coefficient
    is exact on its own.  The leading power is |mu|.

    Each pair carries 1/(|omega|! k!): the k! belongs to the dimension-over-
    factorial weight of the shapes of weight k produced by the product
    expansion, exactly as (n+m)! does in the other two regimes.

    Each pair belongs to exactly one power, so rho is visited once.  Each
    power is then one sum over known roots: the rising factorials of the
    omega and rising_factorial(mu)**2 over M**k.
    """
    n = sum(mp)
    rising_roots = [-c for c in skew_contents(mp)]
    t_sq = content_product(mp) ** 2
    d_mu = durfee(mp)
    # weights[k][omega]: integer sum of g_det * s over the rho of weight k - |omega|.
    weights: dict[int, dict[tuple[int, ...], int]] = {}
    for rho_weight in range(n, order + 1):
        for rho in enumerate_partitions(rho_weight):
            if not rho.contains(mp):
                continue
            g_det = geometric_determinant(mp, rho)
            if not g_det:
                continue
            for omega_weight in range(order - rho_weight + 1):
                row = weights.setdefault(rho_weight + omega_weight, {})
                for omega in enumerate_partitions(omega_weight):
                    s = _durfee_weighted_sum(omega, rho, d_mu)
                    if s:
                        row[omega] = row.get(omega, 0) + g_det * s
    coeffs: dict[int, RationalFunction] = {}
    for k in sorted(weights):
        terms = [(Fraction(dimension(omega) * w, factorial(sum(omega))),
                  [-c for c in skew_contents(omega)], ())
                 for omega, w in weights[k].items()]
        coeffs[k] = RationalFunction.from_root_terms(
            SYM_M, terms, Fraction((-1) ** (n + k), t_sq * factorial(k)),
            num_roots=rising_roots * 2, den_roots=[0] * k)
    return TruncatedSeries(VAR_INV_GAMMA, coeffs, order,
                           min_power=min(n, order + 1))


def delay_schur_moment(lam: PartitionLike, regime: str, order: int) -> TruncatedSeries:
    """Schur moment of the time-delay operator Q in the requested regime.

    Combines the reflection moments of every shape inside `lam` through the
    binomial-determinant transform and divides by g**|lam|.  In the gamma
    regime the bracketed sum must vanish through order |lam| - 1 before the
    division; that cancellation is checked and a failure raises
    InternalConsistencyError.
    """
    lp = as_parts(lam)
    if not lp:
        raise ValueError("the empty shape has the constant moment 1; "
                         "request a non-empty partition")
    if order < 0:
        raise ValueError("order must be non-negative")
    if regime not in VARIABLES:
        raise ValueError(f"unknown regime {regime!r}")
    return _delay_schur_moment(lp, regime, order)


@cache
def _delay_schur_moment(lp: tuple[int, ...], regime: str, order: int) -> TruncatedSeries:
    # The same transform serves every regime: the table in `algebra` says
    # how the factor B(M) and the division by g**|lam| move the powers, and
    # `operand_order` how many powers each reflection moment must carry.
    weight = sum(lp)
    total = TruncatedSeries.zero(regime, operand_order(regime, order, 0, -weight))
    for mu in subpartitions(lp):
        inner = reflection_schur_moment(
            mu, regime, operand_order(regime, order, weight - mu.weight, -weight))
        term = inner.times_m_polynomial(binomial_determinant(lp, mu))
        total = total + (-term if mu.weight % 2 else term)
    total = total.times_power(SYM_G, -weight)
    if regime == VAR_GAMMA:
        for p in sorted(total.coeffs):
            if p < 0:
                raise InternalConsistencyError(
                    f"transform of {lp} left a non-zero coefficient "
                    f"at g^{p + weight}; the leading {weight} powers must cancel")
        # The check proves the bound 0; products derive their order from it.
        total = TruncatedSeries(VAR_GAMMA, total.coeffs, total.order, min_power=0)
    return total.truncate(order)
