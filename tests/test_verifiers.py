import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbuy.audits import (
    TradeoffParams,
    audit_general_impossibility,
    audit_monotonic_impossibility,
    audit_payment_accuracy_tradeoff,
)
from privbuy.core import InputProfile, Mechanism, NeighborRelation, PlayerType
from privbuy.distributions import MAX_SAMPLE_TRIALS, CountDistribution, GeomParams, Interval, shifted_geom_dist
from privbuy.losses import (
    LossModel,
    growing_sd_model,
    increasing_threshold_model,
    loss_expectation,
    tight_dp_loss,
    zero_loss,
)
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
from privbuy.verifiers import _settle

from conftest import ConstantMechanism, PointMass, SwapPayMechanism, neighbor_profiles, profile

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


@pytest.mark.parametrize("relation", (GEN, MON))
def test_ir_subsample_loss_is_infinite_where_atoms_underflow(relation):
    # outcome 1100 has probability 1/C(1100, 550), below the least
    # subnormal, under the profile and none under the bit-0 neighbour
    n = 1100
    mech = subsample(1.0, n // 2, n)
    x = profile([1] * (n // 2) + [0] * (n // 2), [1.0] * n)
    results = check_ir(mech, tight_dp_loss(mech, relation), x)
    assert len(results) == n
    assert results[0].verdict == FAIL and results[0].witness == "pay=1 loss=[inf, inf]"
    assert all(r.verdict == FAIL and r.margin == -math.inf for r in results)


def straddling_model(lo, hi, identical_laws_cancel=True):
    """Every expected loss is the enclosure [lo, hi]."""
    return LossModel(
        respects_indifference=True,
        respects_identical_output_dists=identical_laws_cancel,
        expectation=lambda mech, x, i, declared, mass_tol: Interval(lo, hi),
    )


def test_ir_inconclusive_when_the_loss_straddles_the_pay():
    x = profile([1, 0], [1.0, 0.0])
    rows = check_ir(exact_sum(2, 1.0), straddling_model(0.5, 2.0), x, profile_id="p0")
    # the pay of 1 lies inside [0.5, 2]; the margin is measured to the upper end
    assert rows == [CheckResult("ir", "exact_sum", "p0", i, INCONCLUSIVE, -1.0, "pay=1 loss=[0.5, 2]") for i in (0, 1)]


# --- truthfulness ------------------------------------------------------------

def test_truthful_inconclusive_when_a_deviation_straddles():
    # equal pays and laws, but a model that does not cancel identical laws
    # compares the enclosures: [0, 1] against [0, 1] neither passes nor fails
    x = profile([1, 0], [1.0, 0.0])
    r = check_truthful(exact_sum(2), straddling_model(0.0, 1.0, False), x, 0, deviations=[3.0, 2.0], profile_id="p0")
    assert r == CheckResult("truthful", "exact_sum", "p0", 0, INCONCLUSIVE, -1.0, "deviation v'=2 straddles; refine mass_tol")


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


def test_truthful_names_an_undefined_gap_and_not_the_truth():
    # at eps = 700 the truth's pay 700e306 overflows to inf: its gap against
    # itself is inf - inf, yet it gains nothing on itself, so the row names
    # the deviation above it, whose gap no mass_tol settles
    mech = pay_declared(700.0, 1)
    model, x = tight_dp_loss(mech, GEN), profile([1], [1e306])
    own = check_truthful(mech, model, x, 0, deviations=[1e306])
    assert own.verdict == PASS and repr(own.margin) == "0.0"
    r = check_truthful(mech, model, x, 0)
    assert r.verdict == INCONCLUSIVE and math.isnan(r.margin)
    assert r.witness == "deviation v'=1e+308 has an undefined utility gap; no mass_tol settles it"


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


# --- the sound-side rule ------------------------------------------------------

def ladder_ir(pay, loss):
    """check_ir's own verdict ladder before the rule was stated once."""
    if pay >= loss.hi:
        return PASS, pay - loss.hi
    if pay < loss.lo:
        return FAIL, pay - loss.lo
    return INCONCLUSIVE, pay - loss.hi


def ladder_accuracy(beta, out):
    """check_accuracy's own verdict ladder before the rule was stated once."""
    if out.hi <= beta:
        return PASS, beta - out.hi
    if out.lo > beta:
        return FAIL, beta - out.lo
    return INCONCLUSIVE, beta - out.hi


def ladder_truthful(truth_pay, truth_loss, dev_pay, dev_loss, identical_laws):
    """check_truthful's own verdict ladder, per deviation, before the rule
    was stated once; its identical-law branch had no inconclusive rung."""
    if identical_laws:
        margin = truth_pay - dev_pay
        return (PASS if margin >= 0.0 else FAIL), margin
    margin = (truth_pay - truth_loss.hi) - (dev_pay - dev_loss.lo)
    if margin >= 0.0:
        return PASS, margin
    if (truth_pay - truth_loss.lo) < (dev_pay - dev_loss.hi):
        return FAIL, (truth_pay - truth_loss.lo) - (dev_pay - dev_loss.hi)
    return INCONCLUSIVE, margin


finite = st.floats(allow_nan=False, allow_infinity=False)
# small integers make ties, where the >= and < edges decide
number = st.one_of(finite, st.integers(-3, 3).map(float), st.sampled_from([-0.0, 5e-324, -5e-324]))
interval = st.lists(number, min_size=2, max_size=2).map(lambda ends: Interval(*sorted(ends)))


@given(number, interval, number, interval, number, interval, st.booleans())
@settings(max_examples=500)
def test_settle_gives_the_old_ladders_verdicts_and_margins(pay, loss, beta, out, dev_pay, dev_loss, identical):
    want = [
        ladder_ir(pay, loss),
        ladder_accuracy(beta, out),
        ladder_truthful(pay, loss, dev_pay, dev_loss, identical),
    ]
    if identical:
        truthful = _settle(pay - dev_pay, pay - dev_pay)
    else:
        truthful = _settle((pay - loss.hi) - (dev_pay - dev_loss.lo), (pay - loss.lo) - (dev_pay - dev_loss.hi))
    got = [_settle(pay - loss.hi, pay - loss.lo), _settle(beta - out.hi, beta - out.lo), truthful]
    # repr tells -0.0 from 0.0 and matches NaN to NaN
    assert repr(got) == repr(want)


@given(st.one_of(number, st.just(math.inf), st.just(-math.inf), st.just(math.nan)), st.booleans())
def test_settle_calls_a_nan_margin_inconclusive(other, nan_first):
    margins = (math.nan, other) if nan_first else (other, math.nan)
    assert _settle(*margins)[0] == INCONCLUSIVE


class InfinitePay(ConstantMechanism):
    """Pays every player +inf and publishes 0 whatever they declare."""

    def pay_vector(self, x):
        self.require_profile(x)
        return (math.inf,) * self.player_count


def test_infinite_pay_against_an_infinite_loss_is_inconclusive():
    # pay - loss is inf - inf, undefined: neither IR nor truthfulness is
    # certified, and the truth is no profitable deviation from itself
    mech, model = InfinitePay(2), straddling_model(math.inf, math.inf)
    x = profile([1, 0], [1.0, 0.0])
    rows = check_ir(mech, model, x) + [check_truthful(mech, model, x, i) for i in range(2)]
    assert [r.verdict for r in rows] == [INCONCLUSIVE] * 4
    assert all(math.isnan(r.margin) for r in rows)


def parent_check_truthful(mech, model, x, i, deviations=None, mass_tol=1e-12, profile_id=""):
    """The profile-building check_truthful that Mechanism.retype replaced,
    kept as the differential oracle: a profile and a law for every
    deviation, compared by law alone."""
    mech.require_profile(x)
    truth = x.players[i].valuation
    devs = tuple(deviations) if deviations is not None else tuple(t.valuation for t in mech.deviation_types(x, i))
    if not devs:
        raise ValueError("deviations must be nonempty")
    truth_pay = mech.pay_vector(x)[i]
    truth_dist = mech.output_dist(x, mass_tol)
    truth_loss = None
    by_verdict = {PASS: [], FAIL: [], INCONCLUSIVE: []}
    for dev in devs:
        if dev == truth and math.copysign(1.0, dev) == math.copysign(1.0, truth):
            dev_pay, dev_dist = truth_pay, truth_dist
        else:
            dev_profile = x.with_player(i, PlayerType(x.players[i].bit, dev))
            dev_pay = mech.pay_vector(dev_profile)[i]
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
                grids.append(tuple(dict.fromkeys(tuple(t.valuation for t in mech.deviation_types(x, i)) + extra)))
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


def test_truthful_default_grid_builds_no_type_and_skips_the_default_retype(monkeypatch):
    from privbuy import core

    mechs = [alg1(8.0, 0.5, 4), alg1_prime(8.0, 0.5, 4), pay_declared(0.5, 4), subsample(1.0, 2, 4), exact_sum(4)]
    theta = mechs[0].params.theta
    landmarks = (0.0, theta, 2.0 * theta, theta)
    xs = [profile(b, v) for b in itertools.product((0, 1), repeat=4) for v in (landmarks, (theta / 2.0, 3.0 * theta, -0.0, 1e300))]
    models = {m.name: tight_dp_loss(m, MON) for m in mechs}
    built, default = [], []
    original_new = PlayerType.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(1)
        return original_new(cls, *args, **kwargs)

    def default_retype(self, *args, **kwargs):
        default.append(self.name)
        raise AssertionError("Mechanism.retype called")

    monkeypatch.setattr(PlayerType, "__new__", counted_new)
    monkeypatch.setattr(core.Mechanism, "retype", default_retype)
    for mech in mechs:
        for x in xs:
            for i in range(x.n):
                check_truthful(mech, models[mech.name], x, i)
    assert default == []
    for mech in mechs[:2]:
        for x in xs:
            for i in range(x.n):
                # the budget grid is its landmark types and the truth
                built.clear()
                mech.deviation_types(x, i)
                assert built == []
        # with the loss memo warm, landmark valuations build no type at all
        built.clear()
        for x in xs[::2]:
            for i in range(x.n):
                check_truthful(mech, models[mech.name], x, i)
        assert built == []


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
    # misses drawn by inversion of each law, one rng.random() per draw; each
    # lies within its Wilson interval of the exact rates 5/12, 5/12, 2/5, 0.458 and 0
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    mechs = (alg1(6.0, LN2, 6), alg1_prime(6.0, LN2, 6), subsample(1.0, 3, 6), pay_declared(0.5, 6), exact_sum(6))
    got = [
        check_accuracy(m, x, AccuracySpec(0.2, 0.2, 0.35), method="monte_carlo", trials=3000, seed=11).witness
        for m in mechs
    ]
    assert [w.split(",")[0] for w in got] == [
        "empirical 1266/3000", "empirical 1266/3000", "empirical 1163/3000", "empirical 1331/3000", "empirical 0/3000",
    ]


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.49])
def test_accuracy_monte_carlo_bounds_the_true_law_of_a_truncated_table(beta):
    # half the mass sits at 0, inside the window (-1, 1), and half is
    # truncated: the true miss rate may be anything in [0, 0.5], so the
    # sampled interval must enclose both ends and no beta inside is settled
    mech, x = PointMass(2, 0.5, constant=True), profile([0, 0], [0.0, 0.0])
    assert mech.output_dist(x) == CountDistribution((0,), (0.5,), 0.5)
    spec = AccuracySpec(0.5, 0.5, beta)
    exact = check_accuracy(mech, x, spec)
    assert exact.witness.endswith("in [0, 0.5]")
    row = check_accuracy(mech, x, spec, method="monte_carlo", trials=4000, seed=2)
    lo, hi = map(float, row.witness.split("wilson99 [")[1].rstrip("]").split(", "))
    assert lo <= 0.0 and hi >= 0.5
    assert row.verdict == exact.verdict == INCONCLUSIVE


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


def test_accuracy_caps_monte_carlo_trials():
    x = profile([1, 0], [0.0, 0.0])
    spec = AccuracySpec(0.5, 0.5, 0.5)
    for method in ("monte_carlo", "exact"):
        with pytest.raises(ValueError, match="trials must be at most the cap of 1000000"):
            check_accuracy(exact_sum(2), x, spec, method=method, trials=MAX_SAMPLE_TRIALS + 1, seed=1)
    # the cap itself is allowed
    row = check_accuracy(exact_sum(2), x, spec, method="monte_carlo", trials=MAX_SAMPLE_TRIALS, seed=1)
    assert row.verdict == "pass" and "0/1000000" in row.witness


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
    # center - half rounds to 2e-19 at 0 of 3000 and center + half to
    # 1 - 2^-52 at 1000 of 1000: the exact bounds are 0 and 1
    for trials in (1000, 3000, 1_000_000):
        assert wilson_interval(0, trials)[0] == 0.0 and wilson_interval(trials, trials)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_accuracy_monte_carlo_with_no_misses_never_fails_beta_zero():
    # no sampled miss cannot certify a positive miss rate
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    row = check_accuracy(exact_sum(6), x, AccuracySpec(0.2, 0.2, 0.0), method="monte_carlo", trials=3000, seed=11)
    assert row.verdict == INCONCLUSIVE and row.witness.startswith("empirical 0/3000, wilson99 [0, ")


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


@pytest.mark.parametrize("n", [34, 1000])
def test_dp_check_fails_an_outcome_one_law_cannot_publish(n):
    # a bit flip moves an end of the support: that outcome has mass
    # 1/C(n, n/2) (4.3e-10 at n = 34, 3.7e-300 at n = 1000) under x and none
    # under the neighbour, so the pure-DP level is +inf
    x = profile([1] * (n // 2) + [0] * (n // 2), [1.0] * n)
    results = check_dp(subsample(1.0, n // 2, n), x, 100.0)
    assert [(r.verdict, r.margin) for r in results] == [(FAIL, -math.inf)] * n


def test_dp_check_reads_the_closed_form_at_a_coarse_mass_tol():
    # the rows hold beyond the window, so a coarse truncation moves no level
    mech = alg1(8.0, 0.5, 3)
    x = profile([1, 0, 1], [0.0, 1.0, 9.0])
    for bound in (0.5, 0.5 / 3.0):
        fine, coarse = check_dp(mech, x, bound), check_dp(mech, x, bound, mass_tol=1e-3)
        assert [r.verdict for r in coarse] == [r.verdict for r in fine]
        assert [r.margin for r in coarse] == pytest.approx([r.margin for r in fine], abs=1e-12)


def test_dp_check_refuses_a_truncated_law_without_a_closed_form():
    class Noisy(ConstantMechanism):
        def output_dist(self, x, mass_tol=1e-12):
            return shifted_geom_dist(GeomParams(0.5), x.bit_sum(), mass_tol)

    with pytest.raises(ValueError, match="needs a law stored in full"):
        check_dp(Noisy(2), profile([1, 0], [0.0, 0.0]), 1.0)


def exact_law(mech, y):
    """Law of the published count of ``y`` as {count: Fraction}, from the
    hypergeometric weights, or for the geometric mechanisms the count alone."""
    if isinstance(mech, ShiftedGeometricMechanism):
        counted = mech.params.qualifies if mech.name == "alg1" else (lambda v: True)
        return sum(p.bit for p in y.players if counted(p.valuation))
    n, k, ones = mech.params.n, mech.params.sample_size, sum(y.bits)
    return {
        round(Fraction(n * m, k)): Fraction(math.comb(ones, m) * math.comb(n - ones, k - m), math.comb(n, k))
        for m in range(max(0, k - (n - ones)), min(k, ones) + 1)
    }


def oracle_level(mech, x, y):
    """max over outcomes of |ln Pr[s | x] - ln Pr[s | y]|, from exact laws."""
    p, q = exact_law(mech, x), exact_law(mech, y)
    if isinstance(mech, ShiftedGeometricMechanism):
        # eps |s - q| - eps |s - p| peaks at eps |p - q| beyond both shifts
        return mech.epsilon * abs(p - q)
    return max(abs(math.log(p[s] / q[s])) if s in p and s in q else math.inf for s in set(p) | set(q))


@st.composite
def small_dp_cases(draw):
    """A mechanism, a profile and a relation. Subsampling reaches n = 40,
    where an outcome one law cannot publish has mass down to 1/C(40, 20)."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("subsample", "exact_sum", "alg1", "pay_declared")))
    if kind == "subsample":
        mech = subsample(1.0, draw(st.integers(1, n)), n)
    elif kind == "exact_sum":
        mech = exact_sum(n)
    elif kind == "alg1":
        mech = alg1(draw(st.sampled_from((1.0, 8.0))), draw(st.sampled_from((0.1, 0.5, LN2, 2.0))), n)
    else:
        mech = pay_declared(draw(st.sampled_from((0.1, 0.5, LN2))), n)
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    vals = draw(st.lists(st.sampled_from((0.0, 0.01, 0.5, 3.0, 40.0)), min_size=n, max_size=n))
    return mech, profile(bits, vals), draw(st.sampled_from((GEN, MON))), draw(st.sampled_from((1e-12, 1e-6)))


@given(small_dp_cases())
@settings(deadline=None, max_examples=150)
def test_dp_check_worst_level_is_the_exact_per_outcome_level(case):
    mech, x, relation, mass_tol = case
    bound = 1.0
    for i, r in enumerate(check_dp(mech, x, bound, relation, mass_tol)):
        want = max((oracle_level(mech, x, y) for y in neighbor_profiles(mech, x, i, relation)), default=0.0)
        got = bound - r.margin
        assert got == want or abs(got - want) <= 1e-12, (mech.name, str(x), i)
        assert r.verdict == (PASS if want <= bound else FAIL)


# --- a custom mechanism that implements only the two required hooks ----------

class BitSum(Mechanism):
    """Publishes the exact bit sum and pays everyone 1: ``exact_sum(n, 1.0)``
    through nothing but ``output_dist`` and ``pay_vector``."""

    name = "bit_sum"

    def __init__(self, n):
        self.player_count = n

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((x.bit_sum(),), (1.0,), 0.0)

    def pay_vector(self, x):
        self.require_profile(x)
        return (1.0,) * x.n


def test_two_hook_mechanism_runs_every_check_as_its_bundled_twin():
    n = 3
    mech, twin = BitSum(n), exact_sum(n, 1.0)
    x = profile([1, 0, 1], [0.5, 2.0, 0.0])
    spec = AccuracySpec(0.5, 0.5, 1.0 / 3.0)

    def rows(m):
        model = tight_dp_loss(m, GEN)
        out = check_ir(m, model, x) + [check_truthful(m, model, x, i) for i in range(n)]
        out += [check_accuracy(m, x, spec), check_accuracy(m, x, AccuracySpec(0.0, 0.0, 0.5))]
        out += [check_distinguishable(m, x, DistinguishabilityQuery(i, 0.3, rel)) for i in range(n) for rel in (GEN, MON)]
        return out + check_dp(m, x, 1.0, GEN) + check_dp(m, x, 1.0, MON)

    def reports(m):
        params = TradeoffParams(tau=8.0, gamma=1.0 / n, eta=1.0 / n, beta=0.25, max_pay=1.0)
        return [
            audit_general_impossibility(m, increasing_threshold_model(1.0 / (6 * n), relation=GEN)),
            audit_monotonic_impossibility(m, increasing_threshold_model(1.0 / (3 * n), relation=MON)),
            audit_payment_accuracy_tradeoff(m, growing_sd_model(), params),
        ]

    got = rows(mech)
    assert [r._replace(mechanism="exact_sum") for r in got] == rows(twin)
    assert {r.verdict for r in got} == {PASS, FAIL, "distinguishable"}
    got, want = ([json.dumps(r.to_json_dict(), sort_keys=True) for r in reports(m)] for m in (mech, twin))
    assert [r.replace('"bit_sum"', '"exact_sum"') for r in got] == want
    assert [json.loads(r)["verdict"] for r in got] == ["ir_violated"] * 3
    # Monte Carlo draws from the law itself: the same law draws the same stream
    got, want = (check_accuracy(m, x, spec, method="monte_carlo", trials=1000, seed=4) for m in (mech, twin))
    assert got._replace(mechanism="exact_sum") == want
    assert got.verdict == PASS and got.witness.startswith("empirical 0/1000")


def test_two_hook_mechanism_runs_the_general_audit_at_large_n():
    # the payment cap comes from the chain, so no 2^n scan bounds n
    n = 256
    model = increasing_threshold_model(1.0 / (6 * n), relation=GEN)
    got, want = (
        json.dumps(audit_general_impossibility(m, model).to_json_dict(), sort_keys=True)
        for m in (BitSum(n), exact_sum(n, 1.0))
    )
    assert got.replace('"bit_sum"', '"exact_sum"') == want
    report = json.loads(got)
    assert report["params"]["P"] == 1.0 and report["verdict"] == "ir_violated"
