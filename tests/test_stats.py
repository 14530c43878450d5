import copy
import pickle
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
    VARIABLES,
)
from delaymoments.engine import delay_schur_moment, reflection_schur_moment
from delaymoments.stats import (
    STATISTICS,
    Check,
    CheckResult,
    RegimeRequest,
    Statistic,
    StatisticRequest,
    compute_statistic,
    conjecture_checks,
    cumulant,
    moments_from_cumulants,
    power_sum_moment,
    validate_conjectures,
    variance,
    wigner_moment,
    _cumulant,
    _wigner_moment,
)


def pm(*coeffs):
    return Polynomial(SYM_M, coeffs)


def pg(*coeffs):
    return Polynomial(SYM_G, coeffs)


def test_power_sum_single_row_is_schur():
    from delaymoments.engine import delay_schur_moment

    req = RegimeRequest(VAR_GAMMA, 2)
    assert power_sum_moment((1,), req) == delay_schur_moment((1,), VAR_GAMMA, 2)


def test_power_sum_character_combinations():
    # Tr(Q^2) = s_(2) - s_(1,1) and (Tr Q)^2 = s_(2) + s_(1,1).
    from delaymoments.engine import delay_schur_moment

    req = RegimeRequest(VAR_GAMMA, 2)
    s2 = delay_schur_moment((2,), VAR_GAMMA, 2)
    s11 = delay_schur_moment((1, 1), VAR_GAMMA, 2)
    assert power_sum_moment((2,), req) == s2 - s11
    assert power_sum_moment((1, 1), req) == s2 + s11


def test_wigner_moment_mean_all_regimes():
    m = wigner_moment(1, RegimeRequest(VAR_INV_M, 2))
    assert m.coefficient(0) == RationalFunction(pg(1), pg(1, 1))
    m = wigner_moment(1, RegimeRequest(VAR_GAMMA, 1))
    assert m.coefficient(0) == RationalFunction(pm(1))
    m = wigner_moment(1, RegimeRequest(VAR_INV_GAMMA, 2))
    assert m.coefficient(1) == RationalFunction(pm(1))
    assert m.coefficient(2) == RationalFunction(pm(-1))


def test_second_moment_is_variance_plus_square():
    for regime, order in ((VAR_INV_M, 4), (VAR_GAMMA, 2), (VAR_INV_GAMMA, 6)):
        req = RegimeRequest(regime, order)
        m1 = wigner_moment(1, req)
        m2 = wigner_moment(2, req)
        var = variance(req)
        diff = m2 - (var + m1 * m1)
        for p in range(diff.min_power, diff.order + 1):
            assert diff.coefficient(p).is_zero


@pytest.mark.parametrize("regime,order", [(VAR_INV_M, 4), (VAR_GAMMA, 2),
                                          (VAR_INV_GAMMA, 8)])
def test_moment_cumulant_round_trip(regime, order):
    cums = {j: _cumulant(j, regime, order) for j in range(1, 5)}
    for n in range(1, 5):
        rebuilt = moments_from_cumulants(cums, n)
        direct = _wigner_moment(n, regime, order)
        lo = max(rebuilt.min_power, direct.min_power)
        hi = min(rebuilt.order, direct.order)
        assert hi >= order - 1
        for p in range(lo, hi + 1):
            assert rebuilt.coefficient(p) == direct.coefficient(p), (n, p)


def test_compute_statistic_dispatch():
    from delaymoments.partitions import Partition

    req = RegimeRequest(VAR_GAMMA, 1)
    sr = StatisticRequest("variance", req)
    assert compute_statistic(sr) == variance(req)
    sr = StatisticRequest("wigner_moment", req, n=2)
    assert compute_statistic(sr) == wigner_moment(2, req)
    with pytest.raises(ValueError):
        StatisticRequest("cumulant", req)
    with pytest.raises(ValueError):
        StatisticRequest("schur_q", req, partition=Partition())
    with pytest.raises(ValueError):
        StatisticRequest("nonsense", req)


def test_statistic_request_normalises_its_partition():
    from delaymoments.partitions import Partition

    req = RegimeRequest(VAR_GAMMA, 1)
    sr = StatisticRequest("schur_q", req, partition=[2, 1])
    assert type(sr.partition) is Partition and sr.partition == (2, 1)
    assert str(sr.partition) == "2,1"
    for derived in (sr._replace(partition=[3, 1]),
                    StatisticRequest._make(["schur_q", req, [3, 1], None])):
        assert type(derived.partition) is Partition and derived.partition == (3, 1)
    with pytest.raises(ValueError):
        StatisticRequest("power_sum", req, partition=[1, 2])
    with pytest.raises(ValueError):
        sr._replace(partition=[1, 2])


def _passing():
    return True, ""


# Each record type: its fields in order, valid values for them and, for the
# validating requests, a field value the constructor refuses.
RECORDS = {
    RegimeRequest: (("regime", "order"), (VAR_GAMMA, 2), {"order": -1}),
    StatisticRequest: (("kind", "request", "partition", "n"),
                       ("cumulant", RegimeRequest(VAR_INV_M, 3), None, 2),
                       {"n": 0}),
    Statistic: (("selector", "argument", "title", "help", "compute"),
                ("variance", None, "variance", "the variance", variance), {}),
    CheckResult: (("key", "scope", "hard", "passed", "description", "detail"),
                  ("intro.probe", "intro", True, False, "probe", "power 0"), {}),
    Check: (("key", "scope", "hard", "description", "run"),
            ("intro.probe", "intro", True, "probe", _passing), {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_values_validated_on_every_path(cls):
    fields, values, refused = RECORDS[cls]
    record = cls(*values)
    assert [getattr(record, f) for f in fields] == list(values)
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    assert repr(record) == "{}({})".format(
        cls.__name__, ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    for derived in (cls._make(values), record._replace(), copy.copy(record),
                    copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(derived) is cls and derived == record

    if not refused:
        return
    bad = [refused.get(f, v) for f, v in zip(fields, values)]
    # A tuple built without the constructor, as namedtuple's own `_make`
    # would build it: copying or unpickling it must validate.
    unchecked = tuple.__new__(cls, bad)
    for derive in (lambda: cls(*bad), lambda: cls._make(bad),
                   lambda: record._replace(**refused),
                   lambda: copy.copy(unchecked), lambda: copy.deepcopy(unchecked),
                   lambda: pickle.loads(pickle.dumps(unchecked))):
        with pytest.raises(ValueError):
            derive()


@pytest.mark.parametrize("kind,argument", [
    ("variance", {"n": 7}), ("variance", {"partition": (1,)}),
    ("wigner_moment", {"n": 2, "partition": (1,)}),
    ("schur_q", {"partition": (1,), "n": 1}),
])
def test_statistic_request_rejects_a_stray_argument(kind, argument):
    with pytest.raises(ValueError, match="takes no"):
        StatisticRequest(kind, RegimeRequest(VAR_GAMMA, 1), **argument)


@pytest.mark.parametrize("call", [
    lambda: RegimeRequest(VAR_GAMMA, 1.5),
    lambda: RegimeRequest(VAR_GAMMA, None),
    lambda: StatisticRequest("cumulant", RegimeRequest(VAR_GAMMA, 2), n=2.5),
    lambda: StatisticRequest("wigner_moment", RegimeRequest(VAR_GAMMA, 2)),
    lambda: delay_schur_moment((1,), VAR_GAMMA, 2.0),
    lambda: reflection_schur_moment((1,), VAR_INV_M, Fraction(3, 2)),
    lambda: wigner_moment(2.0, RegimeRequest(VAR_GAMMA, 2)),
    lambda: cumulant("2", RegimeRequest(VAR_GAMMA, 2)),
    lambda: conjecture_checks(3.0),
    lambda: validate_conjectures(2, order=0.5),
], ids=["regime-order", "regime-order-none", "statistic-n", "statistic-n-missing",
        "delay-order", "reflection-order", "wigner-n", "cumulant-n",
        "conjecture-max-n", "conjecture-order"])
def test_non_integer_order_or_index_is_refused_at_the_call(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("regime", VARIABLES)
def test_leading_power_is_the_lowest_nonzero_coefficient(regime):
    order = {VAR_GAMMA: 2, VAR_INV_GAMMA: 5, VAR_INV_M: 3}[regime]
    args = {"partition": {"partition": (2, 1)}, "n": {"n": 2}, None: {}}
    for kind, row in STATISTICS.items():
        series = compute_statistic(StatisticRequest(
            kind, RegimeRequest(regime, order), **args[row.argument]))
        assert series.min_power == min(series.coeffs, default=series.order + 1), kind


def test_leading_power_is_exact_not_a_bound():
    # The strong-absorption variance opens at 1/g^4 and the large-M third
    # cumulant at 1/M^4; a bound tracked through the operations gave 2 and 0.
    assert cumulant(2, RegimeRequest(VAR_INV_GAMMA, 8)).min_power == 4
    assert cumulant(3, RegimeRequest(VAR_INV_M, 6)).min_power == 4


def test_validate_conjectures_small():
    results = validate_conjectures(2)
    assert all(res.passed and not res.detail for res in results)
    assert all(res.scope == "conjectures" and not res.hard for res in results)
    ids = [res.key for res in results]
    assert {"a.n=1", "a.n=2", "b.n=1", "c.n=2", "d1.n=2", "d2.n=1",
            "e.n=2"} <= set(ids)
    assert len(ids) == len(set(ids)) == 11


def test_conjectures_reject_negative_order():
    # Refused with RegimeRequest's message instead of running at order 0.
    for order in (-1, -3):
        with pytest.raises(ValueError) as exc:
            validate_conjectures(2, order)
        assert str(exc.value) == "order must be non-negative"


def test_registering_conjecture_checks_computes_nothing():
    from delaymoments.reference import all_checks

    def calls():
        return [sum(f.cache_info()[:2]) for f in (_wigner_moment, _cumulant)]

    before = calls()
    checks = all_checks("conjectures")
    assert calls() == before
    assert checks and all(c.key.startswith("conjectures.") for c in checks)


def test_summation_order_invariance():
    # Exact arithmetic: accumulating the dimension-weighted Schur moments in
    # reversed enumeration order reproduces every coefficient.
    from delaymoments.engine import delay_schur_moment
    from delaymoments.partitions import dimension, enumerate_partitions

    req = RegimeRequest(VAR_GAMMA, 2)
    reference = wigner_moment(3, req)
    total = None
    for mu in reversed(enumerate_partitions(3)):
        term = delay_schur_moment(mu, VAR_GAMMA, 2).scale(dimension(mu))
        total = term if total is None else total + term
    total = total.scale(RationalFunction(pm(1), pm(0, 0, 0, 1)))
    for p in range(0, 3):
        assert total.coefficient(p) == reference.coefficient(p)


def test_conjecture_b_example():
    # First slope identity at n=1: slope of the mean equals minus half the
    # zero-absorption second trace moment.
    from delaymoments.stats import _trace_moment

    p1 = _trace_moment(1, VAR_GAMMA, 1)
    p2 = _trace_moment(2, VAR_GAMMA, 0)
    assert p1.coefficient(1) == p2.coefficient(0) * Fraction(-1, 2)
    assert p2.coefficient(0) == RationalFunction(pm(0, 0, 2), pm(-1, 0, 1))
