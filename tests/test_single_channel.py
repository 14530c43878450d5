"""Strong-absorption moments against the exact single-channel law.

At M = 1 (one channel, beta = 2) the reflection eigenvalue R of a cavity
with uniform absorption gamma has the density (Beenakker and Brouwer,
Physica E 9, 463 (2001))

    P(R) = (1-R)**-3 * exp(-gamma/(1-R)) * [gamma (e**gamma - 1) + (1 + gamma - e**gamma)(1-R)].

With x = 1/(1-R) and E_k(gamma) = integral over x > 1 of x**-k exp(-gamma x),

    <(1-R)**n> = gamma (e**gamma - 1) E_{n-1}(gamma) + (1 + gamma - e**gamma) E_n(gamma),

and e**gamma E_k(gamma) ~ sum over j of (-1)**j (k)_j gamma**(-j-1), with (k)_j
the rising factorial.  Dropping the exponentially small terms,

    <(1-R)**n> ~ sum_j (-1)**j (n-1)_j gamma**-j - sum_j (-1)**j (n)_j gamma**(-j-1).

At M = 1, Q = (1-R)/g with g = gamma, so <Tr Q**n> is that sum over g**n, and
every Schur moment of Q of a shape with more than one row vanishes.  The law
comes from the physical model, not from the paper's sums, and it runs
through the binomial-determinant transform at finite g.  Only the public API
is used; the expected values are plain Fractions.
"""

from fractions import Fraction
from math import prod

import pytest

from delaymoments import RegimeRequest, delay_schur_moment, power_sum_moment
from oracles import shapes

ORDER = 14


def rising(k: int, j: int) -> int:
    return prod(range(k, k + j))


def trace_power_law(n: int, power: int) -> Fraction:
    """Coefficient of g**-power in <Tr Q**n> at M = 1."""
    p = power - n
    if p < 0:
        return Fraction(0)
    first = (-1) ** p * rising(n - 1, p)
    second = -((-1) ** (p - 1)) * rising(n, p - 1) if p >= 1 else 0
    return Fraction(first + second)


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_power_moments_match_the_single_channel_law(n):
    series = power_sum_moment((n,), RegimeRequest("inv_gamma", ORDER))
    got = [series.coefficient(k).evaluate(1) for k in range(ORDER + 1)]
    assert got == [trace_power_law(n, k) for k in range(ORDER + 1)]


@pytest.mark.parametrize("lam", [lam for weight in range(2, 7) for lam in shapes(weight)
                                 if len(lam) > 1], ids=str)
def test_schur_moments_of_more_than_one_row_vanish_at_one_channel(lam):
    series = delay_schur_moment(lam, "inv_gamma", 12)
    assert [series.coefficient(k).evaluate(1) for k in range(13)] == [0] * 13
