"""Exact cross-regime oracle: the three expansions are one function of (M, g).

The inv-m coefficient of 1/M^k is rational in g; the gamma and inv-gamma
coefficients of g^j and 1/g^j are rational in M.  Re-expanding each side in
the other variable (`RationalFunction.expand`) must give the same double
coefficients:

- [g^j M^-k]: the inv-m coefficient at g = 0 against the gamma coefficient
  at M = infinity;
- [g^-j M^-k]: the inv-m coefficient at g = infinity against the inv-gamma
  coefficient at M = infinity.

The regimes share the binomial-determinant transform, so this checks the
three regime paths against each other, not the transform itself.
"""

import time

import pytest

from delaymoments.algebra import VAR_GAMMA, VAR_INV_GAMMA, VAR_INV_M
from delaymoments.engine import delay_schur_moment
from delaymoments.partitions import enumerate_partitions

MAX_WEIGHT = 4
INV_M_ORDER = 4   # 1/M powers from -|lambda| through this one
G_ORDER = 5       # g and 1/g powers from 0 through this one

SHAPES = [lam for w in range(1, MAX_WEIGHT + 1) for lam in enumerate_partitions(w)]


def _double_coefficients(lam, absorption_regime):
    """Both sides' tables {(j, k): exact scalar} for one absorption regime."""
    inv_m = delay_schur_moment(lam, VAR_INV_M, INV_M_ORDER)
    other = delay_schur_moment(lam, absorption_regime, G_ORDER)
    lo_k = -lam.weight
    from_inv_m, from_other = {}, {}
    for k in range(lo_k, INV_M_ORDER + 1):
        series = inv_m.coefficient(k).expand(absorption_regime, G_ORDER)
        assert series.min_power >= 0, (lam, k)
        for j in range(G_ORDER + 1):
            from_inv_m[j, k] = series.coefficient(j).evaluate(0)
    assert other.min_power >= 0, lam
    for j in range(G_ORDER + 1):
        series = other.coefficient(j).expand(VAR_INV_M, INV_M_ORDER)
        assert series.min_power >= lo_k, (lam, j)
        for k in range(lo_k, INV_M_ORDER + 1):
            from_other[j, k] = series.coefficient(k).evaluate(0)
    return from_inv_m, from_other


@pytest.mark.parametrize("absorption_regime,nonzero_entries",
                         [(VAR_GAMMA, 459), (VAR_INV_GAMMA, 91)])
def test_double_series_agree_across_regimes(absorption_regime, nonzero_entries):
    start = time.perf_counter()
    compared = nonzero = 0
    for lam in SHAPES:
        from_inv_m, from_other = _double_coefficients(lam, absorption_regime)
        for key, value in from_inv_m.items():
            assert value == from_other[key], (lam, key, value, from_other[key])
        compared += len(from_inv_m)
        nonzero += sum(1 for value in from_inv_m.values() if value)
    # 12 shapes, 6 g powers, |lambda| + 5 powers of 1/M each.
    assert compared == 534
    assert nonzero == nonzero_entries
    assert time.perf_counter() - start < 2
