import dataclasses
import itertools
import math
import tracemalloc

import pytest

from privbuy.core import InputProfile, NeighborRelation
from privbuy.distributions import Interval
from privbuy.losses import loss_expectation, tight_dp_loss, zero_loss
from privbuy.mechanisms import ShiftedGeometricMechanism
from privbuy.mechanisms import alg1, alg1_prime, exact_sum, pay_declared, subsample
from privbuy.verifiers import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    AccuracySpec,
    CheckResult,
    DistinguishabilityQuery,
    check_accuracy,
    check_distinguishable,
    check_dp,
    check_ir,
    check_truthful,
    wilson_interval,
)

from conftest import ConstantMechanism, SwapPayMechanism, profile

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC
LN2 = math.log(2.0)


# --- individual rationality --------------------------------------------------

def test_ir_budget_mechanism_passes_tight_monotonic():
    mech = alg1(8.0, 0.5, 4)
    theta = mech.params.theta
    model = tight_dp_loss(mech, MON)
    x = profile([1, 0, 1, 1], [theta / 2, theta, 5 * theta, 0.0])
    results = check_ir(mech, model, x)
    assert all(r.verdict == PASS for r in results)
    assert all(r.margin >= 0 for r in results)


def test_ir_pay_declared_passes_tight_general():
    mech = pay_declared(0.5, 3)
    model = tight_dp_loss(mech, GEN)
    x = profile([1, 0, 1], [2.0, 0.0, 0.5])
    assert all(r.verdict == PASS for r in check_ir(mech, model, x))


def test_ir_exact_sum_fails_tight_general():
    mech = exact_sum(2)
    model = tight_dp_loss(mech, GEN)
    x = profile([1, 0], [1.0, 0.0])
    results = check_ir(mech, model, x)
    assert results[0].verdict == FAIL
    assert results[0].margin == -math.inf  # infinite loss against zero pay
    assert results[1].verdict == PASS  # indifferent player loses nothing


# --- truthfulness ------------------------------------------------------------

def test_truthful_deviation_equal_to_truth_passes():
    mech = alg1(8.0, 0.5, 2)
    model = tight_dp_loss(mech, MON)
    x = profile([1, 0], [1.0, 0.0])
    r = check_truthful(mech, model, x, 0, deviations=[1.0])
    assert r.verdict == PASS and r.margin == 0.0


def test_truthful_deviation_equal_to_truth_keeps_zero_sign():
    # pay_declared pays v * eps and leaves the law alone, so the margin is
    # the payment gap: a truth of -0.0 against a declared 0.0 gives -0.0
    mech = pay_declared(0.5, 2)
    model = tight_dp_loss(mech, GEN)
    neg, pos = profile([1, 0], [-0.0, 0.0]), profile([1, 0], [0.0, 0.0])
    margins = {
        (repr(x.players[0].valuation), repr(dev)): repr(check_truthful(mech, model, x, 0, deviations=[dev]).margin)
        for x in (neg, pos)
        for dev in (-0.0, 0.0)
    }
    assert margins == {("-0.0", "-0.0"): "0.0", ("-0.0", "0.0"): "-0.0", ("0.0", "-0.0"): "0.0", ("0.0", "0.0"): "0.0"}


def test_truthful_budget_mechanism_low_valuation():
    mech = alg1(8.0, 0.5, 4)
    theta = mech.params.theta
    model = tight_dp_loss(mech, MON)
    for v in (0.0, theta / 2, theta):
        x = profile([1, 1, 0, 0], [v, 0.0, 0.0, theta * 3])
        r = check_truthful(mech, model, x, 0, deviations=[0.0, theta, 2 * theta])
        assert r.verdict == PASS, r


def test_untruthful_budget_mechanism_high_valuation_bit_zero():
    # a beyond-threshold bit-0 player gains B/n by declaring low; the prime
    # variant closes exactly this hole
    mech = alg1(8.0, 0.5, 4)
    prime = alg1_prime(8.0, 0.5, 4)
    model = tight_dp_loss(mech, MON)
    model_prime = tight_dp_loss(prime, MON)
    x = profile([0, 1, 0, 0], [10.0, 0.0, 0.0, 0.0])
    assert check_truthful(mech, model, x, 0).verdict == FAIL
    assert check_truthful(prime, model_prime, x, 0).verdict == PASS


def test_pay_declared_untruthful_with_witness():
    mech = pay_declared(0.5, 2)
    model = tight_dp_loss(mech, GEN)
    x = profile([1, 0], [1.0, 0.0])
    r = check_truthful(mech, model, x, 0, deviations=[100.0])
    assert r.verdict == FAIL
    assert "100" in r.witness
    assert r.margin == pytest.approx(-99.0 * 0.5)  # payment gap, law unchanged


def test_truthful_requires_deviations():
    mech = alg1(8.0, 0.5, 2)
    with pytest.raises(ValueError):
        check_truthful(mech, zero_loss(), profile([1, 0], [0.0, 0.0]), 0, deviations=[])


def parent_check_truthful(mech, model, x, i, deviations=None, mass_tol=1e-12, profile_id=""):
    """The profile-building check_truthful that Mechanism.declare replaced,
    kept verbatim as the differential oracle: a profile and a law for every
    deviation, compared by law alone."""
    mech.require_profile(x)
    truth = x.players[i].valuation
    devs = tuple(deviations) if deviations is not None else mech.deviation_valuations(x, i)
    if not devs:
        raise ValueError("deviations must be nonempty")
    truth_pay = mech.expected_pay(x, i)
    truth_dist = mech.output_dist(x, mass_tol)
    truth_loss = None
    by_verdict = {PASS: [], FAIL: [], INCONCLUSIVE: []}
    for dev in devs:
        if dev == truth and math.copysign(1.0, dev) == math.copysign(1.0, truth):
            dev_pay, dev_dist = truth_pay, truth_dist
        else:
            dev_profile = x.with_valuation(i, dev)
            dev_pay = mech.expected_pay(dev_profile, i)
            dev_dist = mech.output_dist(dev_profile, mass_tol)
        if dev_dist == truth_dist and model.respects_identical_output_dists:
            margin = truth_pay - dev_pay
            verdict = PASS if margin >= 0.0 else FAIL
        else:
            if truth_loss is None:
                truth_loss = loss_expectation(model, mech, x, i, truth, mass_tol)
            dev_loss = loss_expectation(model, mech, x, i, dev, mass_tol)
            margin = (truth_pay - truth_loss.hi) - (dev_pay - dev_loss.lo)
            if margin >= 0.0:
                verdict = PASS
            elif (truth_pay - truth_loss.lo) < (dev_pay - dev_loss.hi):
                verdict, margin = FAIL, (truth_pay - truth_loss.lo) - (dev_pay - dev_loss.hi)
            else:
                verdict = INCONCLUSIVE
        by_verdict[verdict].append((margin, dev))
    if by_verdict[FAIL]:
        margin, dev = min(by_verdict[FAIL])
        witness = f"profitable deviation v'={dev:g} (gain {-margin:g})"
        return CheckResult("truthful", mech.name, profile_id, i, FAIL, margin, witness)
    if by_verdict[INCONCLUSIVE]:
        margin, dev = min(by_verdict[INCONCLUSIVE])
        witness = f"deviation v'={dev:g} straddles; refine mass_tol"
        return CheckResult("truthful", mech.name, profile_id, i, INCONCLUSIVE, margin, witness)
    margin, dev = min(by_verdict[PASS])
    return CheckResult("truthful", mech.name, profile_id, i, PASS, margin, f"tightest deviation v'={dev:g}")


def _grid(theta, n, stride=1):
    vals_grid = (0.0, theta / 2.0, theta, 2.0 * theta, 10.0 * theta)
    cells = [(b, v) for b in itertools.product((0, 1), repeat=n) for v in itertools.product(vals_grid, repeat=n)]
    return [profile(b, v) for b, v in cells[::stride]]


def _assert_matches_parent(mech, model, xs, extras):
    for x in xs:
        for i in range(x.n):
            grids = [None]
            for extra in extras:
                grids.append(tuple(dict.fromkeys(tuple(mech.deviation_valuations(x, i)) + extra)))
            for devs in grids:
                want = parent_check_truthful(mech, model, x, i, devs, profile_id="p")
                assert repr(check_truthful(mech, model, x, i, devs, profile_id="p")) == repr(want)


@pytest.mark.parametrize("n, stride", [(2, 1), (3, 7)])
@pytest.mark.parametrize("factory", [alg1, alg1_prime], ids=["alg1", "alg1_prime"])
def test_truthful_matches_the_profile_building_parent_on_the_grids(n, stride, factory):
    # the criterion 1/2 grids plus CLI-style extra deviations around theta
    for eps in (0.5, LN2):
        for budget in (2.0 * n, 4.0 * n):
            mech = factory(budget, eps, n)
            theta = mech.params.theta
            extras = [(-1.0, -0.0, math.nextafter(theta, math.inf), 3.0 * theta, 1e300)]
            for relation in (MON, GEN):
                _assert_matches_parent(mech, tight_dp_loss(mech, relation), _grid(theta, n, stride), extras)


@pytest.mark.parametrize(
    "mech",
    [pay_declared(0.5, 2), subsample(1.5, 1, 2), exact_sum(2, 0.25), ConstantMechanism(2)],
    ids=lambda m: m.name,
)
def test_truthful_matches_the_profile_building_parent_elsewhere(mech):
    extras = [(-1.0, -0.0, 0.0, 7.5, 1e300)]
    xs = _grid(2.0, 2) + [profile([1, 0], [-0.0, 1.0]), profile([0, 1], [-0.0, -0.0])]
    for model in (tight_dp_loss(mech, GEN), tight_dp_loss(mech, MON), zero_loss()):
        _assert_matches_parent(mech, model, xs, extras)


def test_truthful_on_alg1_builds_no_profile_and_no_law(monkeypatch):
    mech = alg1(8.0, 0.5, 4)
    theta = mech.params.theta
    tight = tight_dp_loss(mech, MON)
    # a bit-0 player never moves the law; under zero loss no deviation needs a law
    cases = [
        (tight, profile([0, 1, 0, 1], [theta, 0.0, 3.0 * theta, theta]), 0),
        (zero_loss(), profile([1, 1, 0, 1], [theta / 2.0, 0.0, 3.0 * theta, theta]), 0),
    ]
    built, laws = [], []
    original_post_init = InputProfile.__post_init__

    def counted_post_init(self):
        built.append(1)
        original_post_init(self)

    def no_law(self, x, mass_tol=1e-12):
        laws.append(1)
        raise AssertionError("output_dist called")

    monkeypatch.setattr(InputProfile, "__post_init__", counted_post_init)
    monkeypatch.setattr(ShiftedGeometricMechanism, "output_dist", no_law)
    results = [check_truthful(mech, model, x, i, (0.0, theta, 2.0 * theta, 1e300, -1.0)) for model, x, i in cases]
    assert [r.verdict for r in results] == [PASS, PASS]
    assert built == [] and laws == []


@pytest.mark.parametrize("relation", [GEN, MON], ids=lambda r: r.value)
def test_identical_law_shortcut_also_compares_the_others_pays(relation):
    # declaring 0.0 keeps the law but moves player 1's pay from 2.0 to 0.0,
    # which the adversary of tight_dp_loss sees: the shortcut may not apply
    mech = SwapPayMechanism()
    model = tight_dp_loss(mech, relation)
    no_shortcut = dataclasses.replace(model, respects_identical_output_dists=False)
    x = profile([1, 0], [2.0, 1.0])
    got = check_truthful(mech, model, x, 0)
    want = check_truthful(mech, no_shortcut, x, 0)
    assert (got.verdict, got.margin) == (want.verdict, want.margin) == (FAIL, -math.inf)


# --- accuracy ----------------------------------------------------------------

def test_accuracy_exact_budget_mechanism():
    # n=4, eps=0.5, gamma*n=4: exact two-sided tail 2 a^4/(1+a) ~ 0.16849
    # (oracle: 2*exp(-2)/(1+exp(-0.5))), under the bound 2 exp(-2) ~ 0.27067
    n, eps = 4, 0.5
    mech = alg1(8.0, eps, n)
    x = profile([1, 1, 1, 1], [0.0] * 4)
    gamma = 4.0 / n
    beta = 2.0 * math.exp(-eps * gamma * n)
    r = check_accuracy(mech, x, AccuracySpec(gamma, gamma, beta))
    assert r.verdict == PASS
    a = math.exp(-eps)
    exact_tail = 2.0 * a**4 / (1.0 + a)
    assert beta - r.margin == pytest.approx(exact_tail, abs=1e-10)


def test_accuracy_exact_sum_zero_beta():
    mech = exact_sum(3)
    x = profile([1, 0, 1], [0.0] * 3)
    r = check_accuracy(mech, x, AccuracySpec(1e-9, 1e-9, 0.0))
    assert r.verdict == PASS and r.margin == 0.0


def test_accuracy_fail_and_inconclusive():
    mech = alg1(8.0, LN2, 2)
    x = profile([1, 1], [0.0, 0.0])
    # Pr[|noise| >= 1] = 2/3 > 1/3: certified fail
    assert check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 1.0 / 3.0)).verdict == FAIL
    # with a coarse truncation the enclosure straddles a beta placed inside it
    coarse = check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 2.0 / 3.0 - 0.003), mass_tol=0.01)
    assert coarse.verdict == INCONCLUSIVE


@pytest.mark.parametrize(
    "mech,x",
    [
        (alg1(8.0, 0.5, 4), profile([1, 1, 0, 1], [0.0, 0.0, 0.0, 0.0])),
        (exact_sum(4), profile([1, 0, 1, 0], [0.0, 0.0, 0.0, 0.0])),
        (subsample(1.0, 3, 7), profile([1, 1, 0, 1, 0, 0, 1], [0.0] * 7)),  # support with gaps
    ],
)
def test_accuracy_window_sum_equals_atom_filter(mech, x):
    # the excluded mass summed atom by atom, as a filter over the support
    dist = mech.output_dist(x, 1e-9)
    for alpha, alpha_prime in ((0.0, 0.0), (0.25, 0.0), (0.5, 0.5), (0.75, 0.25), (3.0, 3.0), (0.3, 0.7)):
        lo_edge = x.bit_sum() - alpha * x.n
        hi_edge = x.bit_sum() + alpha_prime * x.n
        out_lo = math.fsum(p for k, p in zip(dist.support, dist.probs) if k <= lo_edge or k >= hi_edge)
        want = f"Pr[outside ({lo_edge:g}, {hi_edge:g})] in {Interval(out_lo, min(1.0, out_lo + dist.truncation_mass))}"
        hi = min(1.0, out_lo + dist.truncation_mass)
        for beta in (0.0, out_lo, 0.5):
            got = check_accuracy(mech, x, AccuracySpec(alpha, alpha_prime, beta), mass_tol=1e-9)
            assert got.witness == want
            if hi <= beta:
                assert (got.verdict, got.margin) == (PASS, beta - hi)
            elif out_lo > beta:
                assert (got.verdict, got.margin) == (FAIL, beta - out_lo)
            else:
                assert (got.verdict, got.margin) == (INCONCLUSIVE, beta - hi)


def test_accuracy_monte_carlo():
    mech = alg1(8.0, LN2, 2)
    x = profile([1, 1], [0.0, 0.0])
    passed = check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 0.9), method="monte_carlo", trials=4000, seed=3)
    assert passed.verdict == PASS
    failed = check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 0.3), method="monte_carlo", trials=4000, seed=3)
    assert failed.verdict == FAIL
    # beta at the true rate (2/3) sits inside the Wilson interval
    straddle = check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 2.0 / 3.0), method="monte_carlo", trials=4000, seed=3)
    assert straddle.verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 0.5), method="bogus")


def test_accuracy_monte_carlo_counts_pinned():
    # misses drawn at the commit before batched sampling; the stream is the same
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    mechs = (alg1(6.0, LN2, 6), alg1_prime(6.0, LN2, 6), subsample(1.0, 3, 6), pay_declared(0.5, 6), exact_sum(6))
    got = [
        check_accuracy(m, x, AccuracySpec(0.2, 0.2, 0.35), method="monte_carlo", trials=3000, seed=11).witness
        for m in mechs
    ]
    assert [w.split(",")[0] for w in got] == [
        "empirical 1219/3000", "empirical 1219/3000", "empirical 1236/3000", "empirical 1315/3000", "empirical 0/3000",
    ]


@pytest.mark.parametrize("mech", [alg1(6.0, LN2, 6), exact_sum(6)], ids=lambda m: m.name)
def test_accuracy_monte_carlo_memory_does_not_grow_with_trials(mech):
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    spec = AccuracySpec(0.2, 0.2, 0.35)
    tracemalloc.start()
    try:
        check_accuracy(mech, x, spec, method="monte_carlo", trials=200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("trials", [True, 0, 2.5, -1])
def test_accuracy_rejects_trials_that_are_not_positive_integers(trials):
    x = profile([1, 0], [0.0, 0.0])
    for method in ("monte_carlo", "exact"):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            check_accuracy(alg1(4.0, 0.5, 2), x, AccuracySpec(0.5, 0.5, 0.5), method=method, trials=trials, seed=1)


def test_accuracy_spec_validation():
    with pytest.raises(ValueError):
        AccuracySpec(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        AccuracySpec(0.5, 0.5, 1.5)
    for spec in ((math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan)):
        with pytest.raises(ValueError):
            AccuracySpec(*spec)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.15
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# --- distinguishability --------------------------------------------------------

def test_high_valuation_player_never_monotonically_distinguishable():
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 0, 0, 0], [5.0, 0.0, 0.0, 0.0])
    for delta in (1e-6, 0.1, 0.9):
        r = check_distinguishable(mech, x, DistinguishabilityQuery(0, delta, MON))
        assert r.verdict == "not_distinguishable"


def test_low_valuation_player_generally_distinguishable():
    mech = alg1(8.0, LN2, 4)
    theta = mech.params.theta
    x = profile([1, 0, 0, 0], [theta / 2, 0.0, 0.0, 0.0])
    r = check_distinguishable(mech, x, DistinguishabilityQuery(0, 0.3, GEN))
    assert r.verdict == "distinguishable"
    assert r.margin == pytest.approx(1.0 / 3.0 - 0.3, abs=1e-9)


def test_delta_above_one_never_distinguishable():
    mech = exact_sum(2)
    x = profile([1, 0], [1.0, 0.0])
    r = check_distinguishable(mech, x, DistinguishabilityQuery(0, 1.01, GEN))
    assert r.verdict == "not_distinguishable"


def test_distinguishability_inconclusive_reports_refinement():
    mech = alg1(8.0, LN2, 2)
    x = profile([1, 0], [0.0, 0.0])
    # unit-shift distance is 1/3; a coarse truncation straddles delta placed just above
    r = check_distinguishable(mech, x, DistinguishabilityQuery(0, 0.3338, GEN), mass_tol=0.01)
    assert r.verdict == INCONCLUSIVE
    assert "refine mass_tol" in r.witness


def test_not_distinguishable_stable_under_refinement():
    mech = alg1(8.0, 0.5, 2)
    x = profile([1, 0], [5.0, 0.0])
    q = DistinguishabilityQuery(0, 0.2, MON)
    for tol in (1e-6, 1e-9, 1e-12):
        assert check_distinguishable(mech, x, q, mass_tol=tol).verdict == "not_distinguishable"


def test_query_validation():
    with pytest.raises(ValueError):
        DistinguishabilityQuery(0, 0.0, GEN)


# --- dp level ----------------------------------------------------------------

def test_dp_check_budget_mechanism():
    eps = 0.5
    mech = alg1(8.0, eps, 3)
    x = profile([1, 0, 1], [0.0, 1.0, 9.0])
    results = check_dp(mech, x, eps)
    assert all(r.verdict == PASS for r in results)
    tight = check_dp(mech, x, eps / 3.0)
    assert any(r.verdict == FAIL for r in tight)
    # NaN passes no comparison, so it would fail every row with margin nan
    with pytest.raises(ValueError, match="bound must not be NaN"):
        check_dp(mech, x, math.nan)
