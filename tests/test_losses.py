"""Loss-model tests.

The expected-loss oracle below recomputes everything from the closed pmf
formula and hand-derived neighbor classes for the budget mechanism, summing
over a wide window, without touching the implementation's law or loss code.
"""

import dataclasses
import itertools
import math
import random
import re

import pytest

from privbuy import losses
from privbuy.core import InputProfile, Mechanism, NeighborRelation, PlayerType, admissible_candidates
from privbuy.distributions import DEFAULT_MASS_TOL, CountDistribution, Interval
from privbuy.losses import (
    clear_expectation_cache,
    growing_sd_model,
    increasing_threshold_model,
    loss_expectation,
    max_neighbor_distance,
    neighbor_distances,
    tight_dp_loss,
    zero_loss,
)
from privbuy.mechanisms import (
    BudgetMechanism,
    CountedMechanism,
    ShiftedGeometricMechanism,
    alg1,
    alg1_prime,
    exact_sum,
    pay_declared,
    subsample,
)
from privbuy.verifiers import check_ir, check_truthful

from conftest import ConstantMechanism, SwapPayMechanism, neighbor_profiles, profile

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC
LN2 = math.log(2.0)


def oracle_budget_loss(eps, v, true_shift, neighbor_shifts, declared_shift, radius=250):
    """E[max-ratio loss] for shifted-geometric laws, from scratch.

    lambda(s) = v * max over neighbor shifts c'' of eps*(|s - c''| - |s - c|),
    expectation under the declared-shift law.
    """
    a = math.exp(-eps)
    norm = (1.0 - a) / (1.0 + a)

    def pmf(k):
        return norm * a ** abs(k)

    total = 0.0
    for s in range(declared_shift - radius, declared_shift + radius + 1):
        lam = v * max(eps * (abs(s - c2) - abs(s - true_shift)) for c2 in neighbor_shifts)
        total += lam * pmf(s - declared_shift)
    return total


def test_zero_model():
    mech = alg1(8.0, 0.5, 2)
    x = profile([1, 0], [1.0, 0.0])
    assert loss_expectation(zero_loss(), mech, x, 0, 1.0) == Interval(0.0, 0.0)


def test_tight_monotonic_high_valuation_bit_one_is_exactly_zero():
    # all monotonic neighbors of (1, v > theta) produce the identical law
    mech = alg1(8.0, 0.5, 4)  # theta = 2
    model = tight_dp_loss(mech, MON)
    x = profile([1, 1, 0, 0], [5.0, 0.0, 0.0, 0.0])
    assert loss_expectation(model, mech, x, 0, 5.0) == Interval(0.0, 0.0)


def test_tight_monotonic_low_valuation_bit_one_matches_oracle():
    eps, v = 0.5, 1.5
    mech = alg1(8.0, eps, 4)  # theta = 2, so v = 1.5 qualifies
    model = tight_dp_loss(mech, MON)
    x = profile([1, 1, 0, 0], [v, 0.0, 0.0, 0.0])
    # monotonic neighbors (0, w <= v): all drop the counted sum from 2 to 1
    oracle = oracle_budget_loss(eps, v, true_shift=2, neighbor_shifts=[1], declared_shift=2)
    got = loss_expectation(model, mech, x, 0, v)
    assert got.lo <= oracle <= got.hi
    assert got.hi - got.lo <= 1e-11
    assert got.lo == pytest.approx(oracle, abs=1e-9)
    # closed form of the oracle: v * eps * (1-a)/(1+a)
    a = math.exp(-eps)
    assert oracle == pytest.approx(v * eps * (1 - a) / (1 + a), abs=1e-9)


def test_tight_monotonic_low_valuation_bit_zero_matches_oracle():
    eps, v = LN2, 1.0
    mech = alg1(8.0, eps, 4)
    model = tight_dp_loss(mech, MON)
    x = profile([0, 1, 0, 0], [v, 0.0, 0.0, 0.0])
    # monotonic neighbors (1, w >= v) split: qualifying ones raise the sum
    # to 2, the rest keep it at 1
    oracle = oracle_budget_loss(eps, v, true_shift=1, neighbor_shifts=[1, 2], declared_shift=1)
    got = loss_expectation(model, mech, x, 0, v)
    assert got.lo <= oracle <= got.hi and got.hi - got.lo <= 1e-11


def test_tight_loss_under_deviated_declaration():
    # declaring above theta shifts the expectation law down by one
    eps, v = 0.5, 1.0
    mech = alg1(8.0, eps, 4)
    model = tight_dp_loss(mech, MON)
    x = profile([1, 0, 0, 0], [v, 0.0, 0.0, 0.0])
    oracle = oracle_budget_loss(eps, v, true_shift=1, neighbor_shifts=[0], declared_shift=0)
    got = loss_expectation(model, mech, x, 0, 10.0)
    assert got.lo <= oracle <= got.hi and got.hi - got.lo <= 1e-11
    assert oracle < 0  # deviating lowers the realized loss here


def test_respects_indifference():
    mech = alg1(8.0, 0.5, 2)
    for rel in (GEN, MON):
        model = tight_dp_loss(mech, rel)
        x = profile([1, 0], [0.0, 1.0])
        for declared in (0.0, 3.0, -2.0):
            assert loss_expectation(model, mech, x, 0, declared) == Interval(0.0, 0.0)


def test_per_outcome_ignores_declaration():
    # 5.0 and 99.0 both lie above theta = 4, so they give the same declared
    # law and payments; the per-outcome loss reads only the true type, so
    # the expectations agree (memo off, so each one is computed)
    mech = alg1(8.0, 0.5, 2)
    assert mech.params.theta == 4.0
    x = profile([1, 0], [1.0, 0.0])
    for rel in (GEN, MON):
        plain = dataclasses.replace(tight_dp_loss(mech, rel), expectation_key=None)
        got = loss_expectation(plain, mech, x, 0, 5.0)
        assert got != Interval(0.0, 0.0)
        assert loss_expectation(plain, mech, x, 0, 99.0) == got


def test_loss_model_needs_a_loss():
    from privbuy.losses import LossModel

    with pytest.raises(TypeError, match="expectation"):
        LossModel(respects_indifference=True, respects_identical_output_dists=True)


def test_fact_bound_holds_on_small_grid():
    # |expected loss| <= v * eps under the tight monotonic model
    eps = LN2
    mech = alg1(6.0, eps, 3)
    theta = mech.params.theta
    model = tight_dp_loss(mech, MON)
    for bits in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        for v in (0.0, theta / 2, theta, 2 * theta):
            x = profile(list(bits), [v, 0.0, theta])
            got = loss_expectation(model, mech, x, 0, v)
            assert abs(got.lo) <= v * eps + 1e-9
            assert abs(got.hi) <= v * eps + 1e-9


def test_tight_general_infinite_against_point_mass():
    mech = exact_sum(2)
    model = tight_dp_loss(mech, GEN)
    x = profile([1, 0], [1.0, 0.0])
    got = loss_expectation(model, mech, x, 0, 1.0)
    assert got.lo == got.hi == math.inf
    # negative valuation flips the sign of the infinity
    y = profile([1, 0], [-1.0, 0.0])
    assert loss_expectation(model, mech, y, 0, -1.0).hi == -math.inf


def test_tight_model_bound_to_wrong_mechanism():
    model = tight_dp_loss(alg1(8.0, 0.5, 2), MON)
    other = alg1(9.0, 0.5, 2)
    with pytest.raises(ValueError):
        loss_expectation(model, other, profile([1, 0], [0.5, 0.0]), 0, 0.5)


def test_expectation_cache_consistency():
    mech = alg1(8.0, 0.5, 4)
    model = tight_dp_loss(mech, MON)
    x = profile([1, 1, 0, 0], [1.0, 0.0, 0.0, 0.0])
    first = loss_expectation(model, mech, x, 0, 1.0)
    again = loss_expectation(tight_dp_loss(mech, MON), mech, x, 0, 1.0)  # fresh model object
    assert first == again


def test_increasing_threshold_model_cases():
    mech = exact_sum(2)
    model = increasing_threshold_model(1.0 / 12.0, relation=GEN)
    # bit flips move the point mass: any positive-valuation player is
    # distinguishable, so loss equals the valuation
    pay_cap = 0.0
    v = model.threshold_fn(pay_cap)  # 1.0 with the default T(l) = l + 1
    x = profile([1, 0], [v, 0.0])
    assert loss_expectation(model, mech, x, 0, v) == Interval(v, v)
    assert v > pay_cap
    # indifferent player: loss 0 regardless of declaration
    assert loss_expectation(model, mech, x, 1, 50.0) == Interval(0.0, 0.0)


def test_increasing_threshold_not_distinguishable_is_zero():
    # beyond-threshold bit-1 players leave the budget mechanism's law fixed
    mech = alg1(8.0, 0.5, 4)
    model = increasing_threshold_model(1.0 / 24.0, relation=MON)
    x = profile([1, 0, 0, 0], [5.0, 0.0, 0.0, 0.0])
    assert loss_expectation(model, mech, x, 0, 5.0) == Interval(0.0, 0.0)


def _max_distance_formula(delta, relation, mech, x, i, mass_tol):
    # the expectation as it was written before the early exit: from the
    # enclosure of the supremum neighbor distance
    v = x.players[i].valuation
    if v == 0.0:
        return Interval(0.0, 0.0)
    dist = max_neighbor_distance(mech, x, i, relation, mass_tol)
    if dist.lo >= delta:
        return Interval(v, v)
    if dist.hi < delta:
        return Interval(0.0, 0.0)
    return Interval(min(0.0, v), max(0.0, v))


@pytest.mark.parametrize("relation", [GEN, MON])
@pytest.mark.parametrize("v", [1.5, -2.0, 0.0])
def test_increasing_threshold_expectation_matches_max_distance(relation, v):
    mass_tol = 1e-3  # wide enough enclosures to place delta inside one
    cases = [
        (alg1(8.0, 0.5, 4), profile([1, 0, 1, 0], [v, 0.0, 1.0, 0.0])),
        (exact_sum(3), profile([1, 0, 0], [v, 2.0, 0.0])),
        (pay_declared(LN2, 3), profile([0, 1, 1], [v, 1.0, 0.0])),
    ]
    for mech, x in cases:
        pairs = neighbor_distances(mech, x, 0, relation, mass_tol)
        lo = max((d.lo for _, d in pairs), default=0.0)
        hi = max((d.hi for _, d in pairs), default=0.0)
        deltas = {min(1.0, lo), min(1.0, hi * 1.5) or 0.5, 0.999}
        if lo < hi:
            deltas.add((lo + hi) / 2.0)  # straddles
        for delta in sorted(d for d in deltas if d > 0.0):
            model = increasing_threshold_model(delta, relation=relation)
            got = loss_expectation(model, mech, x, 0, v, mass_tol)
            assert got == _max_distance_formula(delta, relation, mech, x, 0, mass_tol), (mech.name, delta)


def test_increasing_threshold_expectation_covers_all_three_outcomes():
    mech, x, mass_tol = alg1(8.0, 0.5, 4), profile([1, 0, 1, 0], [1.5, 0.0, 1.0, 0.0]), 1e-3
    d = max_neighbor_distance(mech, x, 0, GEN, mass_tol)
    outcomes = {
        delta: loss_expectation(increasing_threshold_model(delta, relation=GEN), mech, x, 0, 1.5, mass_tol)
        for delta in (d.lo, (d.lo + d.hi) / 2.0, 0.999)
    }
    assert list(outcomes.values()) == [Interval(1.5, 1.5), Interval(0.0, 1.5), Interval(0.0, 0.0)]


def test_increasing_threshold_delta_validation():
    with pytest.raises(ValueError):
        increasing_threshold_model(0.0)
    with pytest.raises(ValueError):
        increasing_threshold_model(1.5)


def test_growing_sd_loss_values():
    mech = alg1(8.0, LN2, 4)  # theta = 1/ln2 ~ 1.44... wait budget 8, n 4: theta = 8/(2*ln2*4)
    theta = mech.params.theta
    v = theta / 2.0
    x = profile([1, 0, 0, 0], [v, 0.0, 0.0, 0.0])
    # qualifying bit-1 player: worst monotonic neighbor drops the shift by 1,
    # and the unit-shift distance at eps=ln2 is 1/3
    model = growing_sd_model()
    assert loss_expectation(model, mech, x, 0, v).lo == pytest.approx(v / 3.0, abs=1e-9)
    high = profile([1, 0, 0, 0], [9.0 * theta, 0.0, 0.0, 0.0])
    assert loss_expectation(model, mech, high, 0, 9.0 * theta).lo == 0.0
    indifferent = profile([1, 0, 0, 0], [0.0, 0.0, 0.0, 0.0])
    assert loss_expectation(model, mech, indifferent, 0, 0.0).lo == 0.0


def test_growing_sd_model_interval():
    mech = alg1(8.0, LN2, 4)
    theta = mech.params.theta
    model = growing_sd_model()
    x = profile([1, 0, 0, 0], [theta / 2, 0.0, 0.0, 0.0])
    got = loss_expectation(model, mech, x, 0, theta / 2)
    assert got.lo == pytest.approx(theta / 6.0, abs=1e-9)
    assert got.hi >= got.lo
    neg = profile([1, 0, 0, 0], [-1.0, 0.0, 0.0, 0.0])
    got_neg = loss_expectation(model, mech, neg, 0, -1.0)
    assert got_neg.hi <= 0.0


def test_user_model_expectation_is_returned_as_is():
    # a user model sets only its expectation; without an expectation_key
    # nothing is memoized
    from privbuy.losses import LossModel

    mech = alg1(8.0, 0.5, 2)
    want = Interval(0.25, 0.5)
    model = LossModel(
        respects_indifference=False,
        respects_identical_output_dists=True,
        expectation=lambda m, x, i, declared, mass_tol: want,
    )
    clear_expectation_cache()
    assert loss_expectation(model, mech, profile([1, 0], [1.0, 0.0]), 0, 1.0) is want
    assert not losses._EXPECTATION_CACHE


def test_max_neighbor_distance_witnesses():
    mech = pay_declared(LN2, 2)
    x = profile([1, 0], [1.0, 0.0])
    d = max_neighbor_distance(mech, x, 0, GEN)
    assert d.lo == pytest.approx(1.0 / 3.0, abs=1e-9)  # bit flip shifts the law by one


# --- the tight-DP memo and Mechanism.others_key ------------------------------

MEMO_MECHANISMS = {
    "alg1": lambda n: alg1(2.0 * n, 0.5, n),
    "alg1_prime": lambda n: alg1_prime(4.0 * n, LN2, n),
    "pay_declared": lambda n: pay_declared(0.5, n),
    "subsample": lambda n: subsample(1.5, max(1, n - 1), n),
    "exact_sum": lambda n: exact_sum(n, 0.25),
    "constant": ConstantMechanism,
}


def _memo_grid(mech, n):
    """Every bit vector with valuations from {0, -0.0, -1, theta/2, theta,
    2 theta, 1e300}: all of them for n <= 2; for n = 3 the 49 vectors in
    which every pair of players takes every pair of valuations."""
    theta = mech.params.theta if isinstance(mech, BudgetMechanism) else 1.0
    vals = (0.0, -0.0, -1.0, theta / 2.0, theta, 2.0 * theta, 1e300)
    if n <= 2:
        val_vectors = list(itertools.product(vals, repeat=n))
    else:
        k = len(vals)
        val_vectors = [(vals[a], vals[b], vals[(a + b) % k]) for a in range(k) for b in range(k)]
    for bits in itertools.product((0, 1), repeat=n):
        for vs in val_vectors:
            yield InputProfile.from_arrays(bits, vs)


@pytest.mark.parametrize("factory", MEMO_MECHANISMS.values(), ids=MEMO_MECHANISMS.keys())
def test_memo_matches_unmemoized_expectation(factory):
    calls = []
    for n in (1, 2, 3):
        mech = factory(n)
        for relation in (GEN, MON):
            model = tight_dp_loss(mech, relation)
            plain = dataclasses.replace(model, expectation_key=None)
            for x in _memo_grid(mech, n):
                for i in range(n):
                    for declared in mech.deviation_valuations(x, i):
                        calls.append((model, plain, mech, x, i, declared))
    random.Random(0).shuffle(calls)
    clear_expectation_cache()
    memoized = [loss_expectation(model, mech, x, i, d) for model, _, mech, x, i, d in calls]
    assert len(losses._EXPECTATION_CACHE) < len(calls)  # the grid does hit the memo
    for (_, plain, mech, x, i, d), got in zip(calls, memoized):
        want = loss_expectation(plain, mech, x, i, d)
        assert got.lo == want.lo and got.hi == want.hi, (mech.name, str(x), i, d, got, want)


def _memo_inputs(mech, x, i):
    """What the tight-DP expectation reads of x besides player i's type:
    the candidates, the law of x and of each change of player i, which
    changes move another player's payment, and the admitted neighbors."""

    def law(y):
        d = mech.output_dist(y)
        return d.support, d.probs, d.truncation_mass

    def pays_minus(y):
        pays = mech.pay_vector(y)
        return pays[:i] + pays[i + 1 :]

    cands = mech.candidate_types(x, i)
    bit = x.players[i].bit
    changed = [x.with_player(i, t) for t in cands] + [
        x.with_player(i, PlayerType(bit, d)) for d in mech.deviation_valuations(x, i)
    ]
    pms = [pays_minus(y) for y in [x] + changed]
    return (
        cands,
        law(x),
        [law(y) for y in changed],
        [pms.index(pm) for pm in pms],  # which profiles pay the others alike
        [admissible_candidates(x, i, rel, cands) for rel in (GEN, MON)],
    )


@pytest.mark.parametrize("name", [name for name in MEMO_MECHANISMS if name != "constant"])
def test_others_key_fixes_what_the_memo_reads(name):
    for n in (2, 3):
        mech = MEMO_MECHANISMS[name](n)
        groups = {}
        for x in _memo_grid(mech, n):
            for i in range(n):
                groups.setdefault((i, x.players[i], mech.others_key(x, i)), []).append(x)
        assert max(map(len, groups.values())) > 1
        for (i, _, _), members in groups.items():
            want = _memo_inputs(mech, members[0], i)
            for x in members[1:]:
                assert _memo_inputs(mech, x, i) == want, (name, i, str(members[0]), str(x))


def test_others_key_default_is_the_other_players():
    mech = ConstantMechanism(3)
    x = profile([1, 0, 1], [1.0, 2.0, 3.0])
    assert mech.others_key(x, 1) == (x.players[0], x.players[2])


def _criterion_grid(factory):
    for n in (2, 3):
        for eps in (0.5, LN2):
            for budget in (2.0 * n, 4.0 * n):
                mech = factory(budget, eps, n)
                theta = mech.params.theta
                vals = (0.0, theta / 2.0, theta, 2.0 * theta, 10.0 * theta)
                for bits in itertools.product((0, 1), repeat=n):
                    for vs in itertools.product(vals, repeat=n):
                        yield mech, tight_dp_loss(mech, MON), InputProfile.from_arrays(bits, vs)


def test_memo_size_after_criterion_grids():
    # a key finer than what the expectation reads would leave more entries
    clear_expectation_cache()
    for mech, model, x in _criterion_grid(alg1):
        check_ir(mech, model, x)
        for i, p in enumerate(x.players):
            if mech.params.qualifies(p.valuation):
                check_truthful(mech, model, x, i)
    assert len(losses._EXPECTATION_CACHE) == 260
    clear_expectation_cache()
    for mech, model, x in _criterion_grid(alg1_prime):
        for i, p in enumerate(x.players):
            if p.bit == 0 or mech.params.qualifies(p.valuation):
                check_truthful(mech, model, x, i)
    assert len(losses._EXPECTATION_CACHE) == 120


# --- the keyed tight-DP expectation against the profile-building one ---------


def _built_log_pmf_table(mech, y, support):
    # per built profile: the geometric closed form, else the stored atoms
    if isinstance(mech, ShiftedGeometricMechanism):
        c = mech.law_key(y)
        return tuple(mech.geom.log_norm - mech.epsilon * abs(s - c) for s in support)
    law = mech.output_dist(y)
    return tuple(math.log(p) if p > 0.0 else -math.inf for p in map(law.prob, support))


def _built_expectation(mech, relation, x, i, declared, mass_tol=DEFAULT_MASS_TOL):
    """The tight-DP expectation as it was written before law keys: a built
    profile, a log-pmf table and a sliced pay_vector per neighbor."""

    def pay_minus(y):
        pays = mech.pay_vector(y)
        return pays[:i] + pays[i + 1 :]

    declared_profile = x.with_valuation(i, declared)
    dist = mech.output_dist(declared_profile, mass_tol)
    p_minus = pay_minus(declared_profile)
    v = x.players[i].valuation
    if v == 0.0:
        return Interval(0.0, 0.0)
    neighbors = neighbor_profiles(mech, x, i, relation)
    if not neighbors:
        raise ValueError(f"no admissible {relation.value} candidates for player {i}")
    support = dist.support
    cur = _built_log_pmf_table(mech, x, support)
    num_ok = pay_minus(x) == p_minus
    best = [-math.inf] * len(support)
    for nbr in neighbors:
        nb = _built_log_pmf_table(mech, nbr, support)
        den_ok = pay_minus(nbr) == p_minus
        for j in range(len(support)):
            a = cur[j] if num_ok else -math.inf
            b = nb[j] if den_ok else -math.inf
            r = 0.0 if (a == -math.inf and b == -math.inf) else a - b
            if r > best[j]:
                best[j] = r
    lam = [v * r for r in best]
    has_pos = any(l == math.inf and p > 0.0 for l, p in zip(lam, dist.probs))
    has_neg = any(l == -math.inf and p > 0.0 for l, p in zip(lam, dist.probs))
    if has_pos and has_neg:
        raise ValueError("per-outcome loss takes both +inf and -inf on the window")
    if has_pos:
        return Interval(math.inf, math.inf)
    if has_neg:
        return Interval(-math.inf, -math.inf)
    total = math.fsum(l * p for l, p in zip(lam, dist.probs))
    slack = dist.truncation_mass * max((abs(l) for l in lam), default=0.0)
    return Interval(total - slack, total + slack)


class QuietSwapPayMechanism(SwapPayMechanism):
    """SwapPayMechanism with a count that never moves, so its neighbors
    differ from a declaration only in the pays the others see."""

    name = "quiet_swap_pay"
    cache_token = ("quiet_swap_pay",)

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((0,), (1.0,), 0.0)

    def _sample_counts(self, x, rng, trials):
        return itertools.repeat(0, trials)


KEYED_MECHANISMS = {
    **MEMO_MECHANISMS,
    "swap_pay": lambda n: SwapPayMechanism(),
    "quiet_swap_pay": lambda n: QuietSwapPayMechanism(),
}


@pytest.mark.parametrize("name", KEYED_MECHANISMS)
def test_keyed_expectation_matches_the_profile_building_one(name):
    checked = 0
    for n in (2,) if name.endswith("swap_pay") else (1, 2, 3):
        mech = KEYED_MECHANISMS[name](n)
        for relation in (GEN, MON):
            expectation = tight_dp_loss(mech, relation).expectation
            for x in _memo_grid(mech, n):
                for i in range(n):
                    for declared in dict.fromkeys(mech.deviation_valuations(x, i) + (1e300, -5.0)):
                        try:
                            want = _built_expectation(mech, relation, x, i, declared)
                        except ValueError as exc:
                            with pytest.raises(ValueError, match=re.escape(str(exc))):
                                expectation(mech, x, i, declared, DEFAULT_MASS_TOL)
                            continue
                        got = expectation(mech, x, i, declared, DEFAULT_MASS_TOL)
                        assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), (str(x), i, declared)
                        checked += 1
    assert checked > 100


def test_keyed_expectation_calls_no_pay_vector_and_no_default_neighbor_keys(monkeypatch):
    calls = []

    def refuse(name):
        def hook(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return hook

    # the default builds a profile per candidate; CountedMechanism defines
    # the one pay_vector of the bundled mechanisms
    monkeypatch.setattr(Mechanism, "neighbor_law_keys", refuse("neighbor_law_keys"))
    monkeypatch.setattr(CountedMechanism, "pay_vector", refuse("pay_vector"))
    for name in ("alg1", "alg1_prime", "pay_declared", "subsample", "exact_sum"):
        mech = MEMO_MECHANISMS[name](3)
        x = profile([1, 0, 1], [0.5, 1.0, -1.0])
        for relation in (GEN, MON):
            model = dataclasses.replace(tight_dp_loss(mech, relation), expectation_key=None)
            for declared in (0.5, 1e300):
                loss_expectation(model, mech, x, 0, declared)
    assert calls == []
