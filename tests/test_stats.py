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
from oracles import shapes


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


@pytest.mark.parametrize("lam,req,operands,pairs", [
    ((1, 1, 1, 1), RegimeRequest(VAR_GAMMA, 2), 12, 30),
    ((3, 2, 1), RegimeRequest(VAR_INV_GAMMA, 8), 25, 60),
])
def test_power_sum_is_one_transform(lam, req, operands, pairs, monkeypatch):
    # The shapes of the character row share one transform: a reflection
    # moment is asked for once per distinct mu inside any of them (12 and 25
    # here, against 30 and 60 with one transform per shape), while B(lam, mu)
    # is still built once per (lam, mu) pair.
    from delaymoments import engine, partitions, stats

    calls = {"reflection_schur_moment": 0, "binomial_determinant": 0}
    for name in calls:
        def counting(*args, _real=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(engine, name, counting)
    for module in (engine, partitions, stats):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    power_sum_moment(lam, req)
    assert calls == {"reflection_schur_moment": operands, "binomial_determinant": pairs}
    assert engine._delay_schur_moment.cache_info().misses == 1


def test_wigner_moment_divides_by_m_in_the_transform(monkeypatch):
    # <tau_W^n> = <p_(1^n)(Q)>/M^n: the transform's one reduction per power
    # divides by M^n, and no second pass over the coefficients follows.
    from delaymoments import engine, partitions, stats
    from delaymoments.algebra import TruncatedSeries

    calls = {"combination": 0, "times_power": 0}
    for name in calls:
        def counting(*args, _real=getattr(TruncatedSeries, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        wrapper = counting if name == "times_power" else staticmethod(counting)
        monkeypatch.setattr(TruncatedSeries, name, wrapper)
    for module in (engine, partitions, stats):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    _wigner_moment(3, VAR_GAMMA, 2)
    assert calls == {"combination": 1, "times_power": 0}


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


def test_statistic_request_refuses_a_request_that_is_not_a_regime_request():
    sr = StatisticRequest("variance", RegimeRequest(VAR_GAMMA, 1))
    for bad in ((VAR_GAMMA, 2), None):
        for derive in (lambda: StatisticRequest("variance", bad),
                       lambda: StatisticRequest._make(["variance", bad, None, None]),
                       lambda: sr._replace(request=bad)):
            with pytest.raises(ValueError, match="RegimeRequest"):
                derive()


@pytest.mark.parametrize("compute", [
    lambda req: power_sum_moment((2, 1), req),
    lambda req: wigner_moment(2, req),
    lambda req: cumulant(2, req),
    lambda req: variance(req),
], ids=["power-sum", "wigner-moment", "cumulant", "variance"])
def test_statistic_functions_refuse_a_request_that_is_not_a_regime_request(compute):
    # The same check and message as StatisticRequest's.
    for bad in ((VAR_GAMMA, 2), None):
        with pytest.raises(ValueError, match=r"^request must be a RegimeRequest, got "):
            compute(bad)


# inv-gamma series open at higher powers, so its sweep reaches further.
SWEEP_ORDERS = {VAR_INV_M: range(4), VAR_GAMMA: range(4),
                VAR_INV_GAMMA: range(0, 9, 2)}


def test_truncation_sweep_series_at_k_is_series_at_k_plus_3_truncated():
    # Every power a series emits is exact, so computing it at a higher
    # order and cutting back gives the same series.
    arguments = {"partition": [lam for weight in range(1, 5) for lam in shapes(weight)],
                 "n": range(1, 5), None: [None]}
    for regime, orders in SWEEP_ORDERS.items():
        for kind, row in STATISTICS.items():
            for value in arguments[row.argument]:
                given = {row.argument: value} if row.argument else {}

                def at(order):
                    return compute_statistic(StatisticRequest(
                        kind, RegimeRequest(regime, order), **given))

                for k in orders:
                    assert at(k) == at(k + 3).truncate(k), (kind, value, regime, k)


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
    lambda: RegimeRequest(VAR_GAMMA, True),
    lambda: StatisticRequest("cumulant", RegimeRequest(VAR_GAMMA, 2), n=2.5),
    lambda: StatisticRequest("wigner_moment", RegimeRequest(VAR_GAMMA, 2)),
    lambda: delay_schur_moment((1,), VAR_GAMMA, 2.0),
    lambda: reflection_schur_moment((1,), VAR_INV_M, Fraction(3, 2)),
    lambda: wigner_moment(2.0, RegimeRequest(VAR_GAMMA, 2)),
    lambda: cumulant("2", RegimeRequest(VAR_GAMMA, 2)),
    lambda: conjecture_checks(3.0),
], ids=["regime-order", "regime-order-none", "regime-order-bool", "statistic-n",
        "statistic-n-missing", "delay-order", "reflection-order", "wigner-n",
        "cumulant-n", "conjecture-max-n"])
def test_non_integer_order_or_index_is_refused_at_the_call(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("regime", VARIABLES)
def test_reflection_moment_refuses_a_negative_order(regime):
    # As delay_schur_moment and RegimeRequest do, before the regime is chosen.
    with pytest.raises(ValueError, match="order must be non-negative"):
        reflection_schur_moment((2, 1), regime, -1)


@pytest.mark.parametrize("call", [
    RegimeRequest,
    lambda regime, order: reflection_schur_moment((2, 1), regime, order),
    lambda regime, order: delay_schur_moment((2, 1), regime, order),
], ids=["request", "reflection", "delay"])
def test_regime_is_checked_before_the_order(call):
    # One check serves the three entry points: a bad regime is named first.
    for order in (-1, 1.5):
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            call("bogus", order)


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


def test_lossless_cavity_sample_matches_the_mean_and_variance():
    # Statistical oracle from the physical model, sharing no code with the
    # engine.  At g = 0, Q = M·W⁻¹ with W = GG† complex Wishart, G an
    # M×2M complex Gaussian with E|G_ij|² = 1 (Brouwer, Frahm and Beenakker,
    # PRL 78, 4737 (1997)), so Tr(Q)/M = Tr W⁻¹.  Seed, sample size and
    # tolerance were fixed before the first run: each sample statistic must
    # lie within 4 standard errors, read from the sample's own second and
    # fourth central moments, of the g⁰ coefficient at M = 5.
    np = pytest.importorskip("numpy")
    m, size, chunk = 5, 200_000, 20_000
    rng = np.random.default_rng(20231)
    taus = []
    for _ in range(size // chunk):
        g = (rng.standard_normal((chunk, m, 2 * m))
             + 1j * rng.standard_normal((chunk, m, 2 * m))) / np.sqrt(2)
        w = g @ g.conj().transpose(0, 2, 1)
        taus.append(np.trace(np.linalg.inv(w), axis1=1, axis2=2).real)
    tau = np.concatenate(taus)
    dev = tau - tau.mean()
    m2, m4 = (dev**2).mean(), (dev**4).mean()

    req = RegimeRequest(VAR_GAMMA, 0)
    mean = wigner_moment(1, req).coefficient(0).evaluate(m)
    var = variance(req).coefficient(0).evaluate(m)
    assert (mean, var) == (1, Fraction(1, 12))
    assert abs(tau.mean() - float(mean)) < 4 * np.sqrt(m2 / size)
    assert abs(m2 - float(var)) < 4 * np.sqrt((m4 - m2**2) / size)
