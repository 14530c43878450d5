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

from collections import defaultdict
from fractions import Fraction
from functools import cache
from math import factorial, prod

from .algebra import (
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    operand_order,
    require_regime_order,
    widest_series_cache,
)
from .partitions import (
    PartitionLike,
    _shape,
    as_parts,
    character_row,
    class_size,
    content_product,
    dimension,
    durfee,
    enumerate_partitions,
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
    return Polynomial(SYM_G, _absorption_coeffs(as_parts(beta)))


def _absorption_coeffs(beta: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending integer coefficients of the product of (1 + q*g) over beta."""
    cs = (1,)
    for q in beta:
        cs = tuple(a + q * b for a, b in zip(cs + (0,), (0,) + cs))
    return cs


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


def _dim_content_weight(parts: tuple[int, ...]) -> int:
    t = content_product(parts)
    return dimension(parts) * t * t


@cache
def _strip_weight(kappa: tuple[int, ...], beta: tuple[int, ...], target: int) -> int:
    """Sum of dimension * content_product**2 over the strip expansion of
    s_kappa * p_beta, restricted to shapes whose Durfee square has side
    `target`.  The strips of beta's first part come first, and the rest of
    beta is summed from each shape they reach, so cycle types that share a
    tail share its sums; the recursion is length(beta) deep."""
    if not beta:
        return _dim_content_weight(kappa) if durfee(kappa) == target else 0
    rest = _shape(beta[1:])
    return sum(c * _strip_weight(nu, rest, target)
               for nu, c in strip_expansion(kappa, _shape(beta[:1]), target).items())


@cache
def _durfee_weighted_sum(a: tuple[int, ...], b: tuple[int, ...], target: int) -> int:
    """Sum of dimension * content_product**2 over the Schur product s_a * s_b,
    restricted to results whose Durfee square has side `target`: the entry
    for the lighter factor in the `_durfee_row` of the heavier one."""
    if max(durfee(a), durfee(b)) > target:
        # Both factors sit inside every shape of the product.
        return 0
    if (sum(a), a) < (sum(b), b):
        a, b = b, a
    return _durfee_row(a, sum(b), target).get(b, 0)


@cache
def _durfee_row(a: tuple[int, ...], m: int, target: int) -> dict[tuple[int, ...], int]:
    """{b: `_durfee_weighted_sum(a, b, target)`} for every b of weight m (zeros
    left out), from the power-sum expansion of s_b over cycle types beta:

        m! * _durfee_weighted_sum(a, b, target)
            = sum over beta of class_size(beta) * chi^b(beta) * I(beta),

    with I(beta) = `_strip_weight(a, beta, target)`.
    """
    row: dict[tuple[int, ...], int] = defaultdict(int)
    for beta in enumerate_partitions(m):
        inner = _strip_weight(a, beta, target)
        if inner:
            weight = class_size(beta) * inner
            for b, chi in character_row(beta).items():
                row[b] += weight * chi
    return {b: s // factorial(m) for b, s in row.items() if s}


def durfee_filtered_lr_sum(mu: PartitionLike, rho: PartitionLike) -> int:
    """The nested sum of the gamma and inv-gamma expansions: over shapes nu
    in s_mu * s_rho with the same Durfee square as mu, weighted by
    dimension(nu) * content_product(nu)**2.  It is read from strip
    expansions (`_durfee_weighted_sum`); no LR product is expanded."""
    mp, rp = as_parts(mu), as_parts(rho)
    return _durfee_weighted_sum(mp, rp, durfee(mp))


def reflection_schur_moment(mu: PartitionLike, regime: str, order: int) -> TruncatedSeries:
    """Schur moment of the reflection matrix R in the requested regime.

    The returned series is exact for every power up to `order`.
    """
    mp = as_parts(mu)
    require_regime_order(regime, order)
    if regime == VAR_INV_M:
        return _reflection_inv_m(mp, order)
    if regime == VAR_GAMMA:
        return _reflection_gamma(mp, order)
    return _reflection_inv_gamma(mp, order)


@widest_series_cache
def _reflection_inv_m(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Large-M expansion: the square of the rising factorial times a bare
    series in 1/M with coefficients rational in g, whose denominators are
    powers of (1+g).

    The bare coefficient of 1/M**(|mu| + k) sums over the cycle types beta
    without fixed points with |beta| - length(beta) = k: each is a partition
    gamma of k with one added to every part, of weight m = k + length(gamma).
    The shape sum of each beta is `_strip_weight(mu, beta, d)` at mu's
    Durfee side d: strips only add cells, so no shape of s_mu * p_beta has a
    smaller square, and those with a larger one are pruned.  Each power is
    one sum over the known root g = -1, of multiplicity |mu| + m, the
    factors prod (1 + q*g) of the cycle types riding along as integer
    polynomials.  The prefactor lowers the power by at most 2|mu|, so
    k <= order + |mu| reaches every power up to `order`.
    """
    n = sum(mp)
    d_mu = durfee(mp)
    scale = Fraction(1, content_product(mp) ** 2)
    bare = {}
    for k in range(order + n + 1):
        terms = []
        for gamma in enumerate_partitions(k):
            beta = _shape(q + 1 for q in gamma)
            m = k + len(beta)
            inner = _strip_weight(mp, beta, d_mu)
            if inner:
                terms.append((Fraction((-1) ** len(beta) * class_size(beta) * inner,
                                       factorial(m) * factorial(n + m)),
                              (), (-1,) * (n + m), _absorption_coeffs(beta)))
        bare[n + k] = RationalFunction.from_root_terms(SYM_G, terms, scale)
    return TruncatedSeries(VAR_INV_M, bare, order + 2 * n).times_m_polynomial(
        rising_factorial(mp) ** 2)


@widest_series_cache
def _reflection_gamma(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Weak-absorption expansion, assembled from `_gamma_coefficient`."""
    return TruncatedSeries(VAR_GAMMA, {m: _gamma_coefficient(mp, m)
                                       for m in range(order + 1)}, order)


@cache
def _gamma_coefficient(mp: tuple[int, ...], m: int) -> RationalFunction:
    """Coefficient of g**m in the weak-absorption expansion: it sums
    dimension over generalized falling factorial across partitions rho of
    m, so it is exact on its own.

    The rho sum goes over one denominator of known roots, the cell contents
    of the rho, together with the prefactor rising_factorial(mu) * M**m."""
    n = sum(mp)
    d_mu = durfee(mp)
    terms = []
    for rho in enumerate_partitions(m):
        s = _durfee_weighted_sum(mp, rho, d_mu)
        if s:
            terms.append((dimension(rho) * s, (), skew_contents(rho)))
    return RationalFunction.from_root_terms(
        SYM_M, terms,
        Fraction((-1) ** m, content_product(mp) ** 2 * factorial(m) * factorial(n + m)),
        num_roots=[-c for c in skew_contents(mp)] + [0] * m)


@widest_series_cache
def _reflection_inv_gamma(mp: tuple[int, ...], order: int) -> TruncatedSeries:
    """Strong-absorption expansion, assembled from `_inv_gamma_coefficient`;
    the leading power is |mu|."""
    return TruncatedSeries(VAR_INV_GAMMA, {k: _inv_gamma_coefficient(mp, k)
                                           for k in range(sum(mp), order + 1)}, order)


@cache
def _inv_gamma_coefficient(mp: tuple[int, ...], k: int) -> RationalFunction:
    """Coefficient of 1/g**k in the strong-absorption expansion: a sum over
    pairs (rho containing mu, omega) with |rho| + |omega| = k, so it is
    exact on its own.

    Each pair carries 1/(|omega|! k!): the k! belongs to the dimension-over-
    factorial weight of the shapes of weight k produced by the product
    expansion, exactly as (n+m)! does in the other two regimes.  The sum
    goes over known roots: the rising factorials of the omega and
    rising_factorial(mu)**2 over M**k.
    """
    n = sum(mp)
    d_mu = durfee(mp)
    # weights[omega]: integer sum of g_det * s over the rho of weight k - |omega|.
    weights: dict[tuple[int, ...], int] = {}
    for rho_weight in range(n, k + 1):
        omegas = enumerate_partitions(k - rho_weight)
        for rho, g_det in _containing_shapes(mp, rho_weight):
            for omega in omegas:
                s = _durfee_weighted_sum(omega, rho, d_mu)
                if s:
                    weights[omega] = weights.get(omega, 0) + g_det * s
    terms = [(Fraction(dimension(omega) * w, factorial(sum(omega))),
              [-c for c in skew_contents(omega)], ())
             for omega, w in weights.items()]
    return RationalFunction.from_root_terms(
        SYM_M, terms, Fraction((-1) ** (n + k), content_product(mp) ** 2 * factorial(k)),
        num_roots=[-c for c in skew_contents(mp)] * 2, den_roots=[0] * k)


@cache
def _containing_shapes(mp: tuple[int, ...], weight: int) -> tuple[tuple, ...]:
    """(rho, geometric_determinant(mu, rho)) for every rho of `weight` that
    contains mu with a non-zero determinant."""
    return tuple((rho, g_det) for rho in enumerate_partitions(weight)
                 if rho.contains(mp) and (g_det := geometric_determinant(mp, rho)))


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
    require_regime_order(regime, order)
    return _delay_schur_moment(((lp, 1),), regime, order)


@widest_series_cache
def _delay_schur_moment(shapes: tuple, regime: str, order: int) -> TruncatedSeries:
    # The moment of the sum of c * s_lam(Q) over the (lam, c) of `shapes`, all
    # of one weight: per output power one sum of C(mu) * <s_mu(R)> over the mu
    # inside them, C(mu) summing c * +-B(lam, mu), reduced once.  `combination`
    # and `operand_order` keep the order of every regime, and a gamma moment
    # that passes the cancellation check leads at g^0 or above.
    weight = sum(shapes[0][0])
    factors = defaultdict(lambda: Polynomial(SYM_M))
    for lam, c in shapes:
        for mu in subpartitions(lam):
            factors[mu] += binomial_determinant(lam, mu) * (-c if mu.weight % 2 else c)
    total = TruncatedSeries.combination(regime, [
        (b, reflection_schur_moment(
            mu, regime, operand_order(regime, order, weight - mu.weight, -weight)))
        for mu, b in factors.items()], -weight)
    if regime == VAR_GAMMA and total.min_power < 0:
        raise InternalConsistencyError(
            f"transform of {shapes} left a non-zero coefficient "
            f"at g^{total.min_power + weight}; the leading {weight} powers must cancel")
    return total.truncate(order)
