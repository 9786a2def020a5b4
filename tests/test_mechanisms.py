import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbuy.core import InputProfile, Mechanism, NeighborRelation, PlayerType
from privbuy.distributions import GeomParams, dp_level, shifted_geom_dist, statistical_distance, window_radius
from privbuy.mechanisms import (
    BudgetParams,
    ShiftedGeometricMechanism,
    SubsampleMechanism,
    SubsampleParams,
    _subsample_law,
    alg1,
    alg1_prime,
    exact_sum,
    max_zero_valuation_pay,
    pay_declared,
    subsample,
)

from conftest import ConstantMechanism, bit_vectors, neighbor_profiles, oracle_sample_geom, profile

LN2 = math.log(2.0)


# --- budget mechanism ------------------------------------------------------

def test_alg1_worked_example():
    # B=8, eps=0.5, n=4 gives theta=2; player 1 (valuation 3) is zeroed out
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 1, 0, 1], [1.0, 3.0, 0.0, 2.0])
    assert mech.params.theta == pytest.approx(2.0)
    assert mech.pay_vector(x) == (2.0, 0.0, 2.0, 2.0)
    assert mech.law_key(x) == 2
    out = mech.sample(x, 11)
    assert out.payments == (2.0, 0.0, 2.0, 2.0)
    assert mech.sample(x, 11) == out  # deterministic given the seed


def test_alg1_all_indifferent_pays_everyone():
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 0, 1, 1], [0.0] * 4)
    assert mech.pay_vector(x) == (2.0,) * 4
    assert mech.law_key(x) == 3


def test_alg1_all_high_valuation_zeroed():
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 1, 1, 1], [10.0] * 4)
    assert mech.pay_vector(x) == (0.0,) * 4
    assert mech.law_key(x) == 0


def test_alg1_threshold_tie_is_included():
    # 2 * 0.5 * 1.0 == 1.0 == B/n exactly
    mech = alg1(4.0, 0.5, 4)
    x = profile([1, 0, 0, 0], [1.0, 0.0, 0.0, 0.0])
    assert mech.pay_vector(x)[0] == 1.0
    assert mech.law_key(x) == 1


def test_alg1_output_dist_is_shifted_geometric():
    mech = alg1(8.0, math.log(2.0), 4)
    x = profile([1, 1, 0, 0], [0.0, 0.0, 0.0, 0.0])
    assert mech.output_dist(x) == shifted_geom_dist(GeomParams(math.log(2.0)), 2)


def test_alg1_law_depends_only_on_counted_sum():
    mech = alg1(8.0, 0.5, 4)
    a = profile([1, 1, 0, 0], [0.0, 0.0, 0.0, 0.0])
    b = profile([0, 1, 1, 1], [0.0, 0.0, 0.0, 99.0])  # last player zeroed
    assert mech.law_key(a) == mech.law_key(b) == 2
    assert mech.output_dist(a) == mech.output_dist(b)


def test_alg1_high_valuation_bit_flip_invisible():
    # flipping the bit of a beyond-threshold player changes neither the law
    # nor anyone else's payment
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 1, 0, 1], [1.0, 5.0, 0.0, 2.0])
    y = x.with_player(1, PlayerType(0, 5.0))
    assert mech.output_dist(x) == mech.output_dist(y)
    px, py = mech.pay_vector(x), mech.pay_vector(y)
    assert px[:1] + px[2:] == py[:1] + py[2:]


def test_log_pmf_table_matches_dist():
    x = profile([1, 1, 0], [0.0, 0.0, 0.0])
    for mech in (alg1(8.0, 0.5, 3), subsample(1.0, 2, 3), exact_sum(3), ConstantMechanism(3)):
        d = mech.output_dist(x)
        assert mech.log_pmf_table(mech.law_key(x), d.support) == pytest.approx([math.log(p) for p in d.probs], abs=1e-12)


def test_alg1_prime_payments():
    mech = alg1_prime(8.0, 0.5, 4)
    base = alg1(8.0, 0.5, 4)
    x = profile([0, 1, 1, 0], [1e9, 1.0, 5.0, 0.0])
    # high-valuation bit-0 player is paid in the variant, not in the base
    assert mech.pay_vector(x) == (2.0, 2.0, 0.0, 2.0)
    assert base.pay_vector(x) == (0.0, 2.0, 0.0, 2.0)
    # output law identical to the base mechanism
    assert mech.output_dist(x) == base.output_dist(x)


def _restated_qualifies(budget, eps, n, v):
    # the paper's rule 2 eps v <= B/n, spelled out independently of BudgetParams
    return 2.0 * eps * v <= budget / n


_BUDGET_CASES = [
    # exact tie 2 * 0.5 * 1.0 == 4 / 4
    (4.0, 0.5, [1, 0, 1, 1], [1.0, 1.0, 0.0, 2.0]),
    (8.0, 0.5, [1, 1, 0, 1], [1.0, 3.0, 0.0, 2.0]),
    (8.0, 0.5, [1, 0, 1, 0], [-1.0, -1e9, -0.0, 5.0]),
    # 2 eps v overflows to +-inf
    (3.0, 3.0, [1, 1, 0, 0, 1], [1e300, -1e300, 1.7e308, 1e-300, -1.7e308]),
    (0.1, LN2, [1, 1, 1, 0, 0, 1], [0.0, 0.03, 0.04, 1e18, -1e18, 0.0360674]),
]


@pytest.mark.parametrize("budget,eps,bits,vals", _BUDGET_CASES)
def test_budget_mechanism_matches_restated_rule(budget, eps, bits, vals):
    n = len(bits)
    x = profile(bits, vals)
    q = [_restated_qualifies(budget, eps, n, v) for v in x.valuations]
    assert alg1(budget, eps, n).law_key(x) == sum(b for b, ok in zip(bits, q) if ok)
    for mech, zero_bits in ((alg1(budget, eps, n), False), (alg1_prime(budget, eps, n), True)):
        want = tuple(budget / n if ok or (zero_bits and b == 0) else 0.0 for b, ok in zip(bits, q))
        assert mech.law_key(x) == alg1(budget, eps, n).law_key(x)
        assert mech.pay_vector(x) == want
        assert tuple(mech.expected_pay(x, i) for i in range(n)) == want


@pytest.mark.parametrize(
    "budget,eps,n",
    [(4.0, 0.5, 4), (8.0, 0.5, 4), (0.1, LN2, 6), (3.0, 3.0, 5), (1.0, 0.3, 7)],
    ids=["exact_tie", "theta_2", "ln2", "eps_3", "inexact_theta"],
)
def test_budget_rule_is_qualifies(budget, eps, n):
    # counts, pay and the hoisted _counted give BudgetParams.qualifies at
    # the threshold, one ulp either side of it, at zero of both signs and
    # far out; at 4 / (2 * 0.5 * 4) the tie 2 eps theta == B/n is exact
    params = BudgetParams(budget, eps, n)
    theta = params.theta
    values = (theta, math.nextafter(theta, math.inf), math.nextafter(theta, -math.inf), 0.0, -0.0, -1.0, 1e300)
    players = [PlayerType(b, v) for v in values for b in (0, 1)]
    for mech, zero_bits in ((alg1(budget, eps, n), False), (alg1_prime(budget, eps, n), True)):
        for v in values:
            q = params.qualifies(v)
            assert mech.counts(v) == q, (mech.name, v)
            for bit in (0, 1):
                want = params.budget / params.n if q or (zero_bits and bit == 0) else 0.0
                assert mech.pay(bit, v) == want, (mech.name, bit, v)
                assert mech._counted([PlayerType(bit, v)]) == (bit if q else 0), (mech.name, bit, v)
        assert mech._counted(players) == sum(p.bit for p in players if params.qualifies(p.valuation))
    if (budget, eps, n) == (4.0, 0.5, 4):
        assert params.qualifies(theta) and not params.qualifies(math.nextafter(theta, math.inf))


def _every_mechanism(n):
    yield alg1(2.0 * n, 0.5, n)
    yield alg1_prime(2.0 * n, 0.5, n)
    yield subsample(1.5, max(1, n // 2), n)
    yield pay_declared(0.5, n)
    yield exact_sum(n, 0.25)
    yield ConstantMechanism(n)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_expected_pay_is_pay_vector_entry(n):
    rng = random.Random(n)
    for _ in range(20):
        x = profile(
            [rng.randint(0, 1) for _ in range(n)],
            [rng.choice([0.0, -0.0, 1.0, 2.0, 3.5, -2.0, 1e12]) for _ in range(n)],
        )
        for mech in _every_mechanism(n):
            pays = mech.pay_vector(x)
            assert tuple(mech.expected_pay(x, i) for i in range(n)) == pays, mech.name


def test_budget_params_validation():
    for bad in ((0.0, 0.5, 2), (8.0, 0.0, 2), (8.0, 0.5, 0), (math.inf, 0.5, 2)):
        with pytest.raises(ValueError):
            BudgetParams(*bad)


def test_budget_params_refuse_a_two_theta_that_is_not_finite():
    # 2 theta is a candidate valuation; budgets this large overflow it
    for budget, eps, n in ((1.7e308, 0.01, 2), (1e308, 0.5, 1)):
        with pytest.raises(ValueError, match="2 theta .* must be finite"):
            BudgetParams(budget, eps, n)
    assert BudgetParams(8.9e307, 0.5, 1).theta == 8.9e307


def test_size_mismatch_rejected():
    mech = alg1(8.0, 0.5, 4)
    with pytest.raises(ValueError):
        mech.output_dist(profile([1], [0.0]))
    with pytest.raises(ValueError):
        mech.pay_vector(profile([1, 0], [0.0, 0.0]))


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(-50, 50, allow_nan=False)), min_size=1, max_size=8))
@settings(deadline=None, max_examples=60)
def test_budget_feasibility(players):
    n = len(players)
    x = InputProfile(tuple(PlayerType(b, v) for b, v in players))
    for mech in (alg1(3.0 * n, 0.7, n), alg1_prime(3.0 * n, 0.7, n)):
        assert math.fsum(mech.pay_vector(x)) <= 3.0 * n + 1e-9


def test_alg1_dp_level_within_epsilon():
    # exhaustive over a small grid: every candidate neighbor's law is within
    # eps in pure-DP distance (counted sums differ by at most 1)
    eps = math.log(2.0)
    mech = alg1(6.0, eps, 3)
    theta = mech.params.theta
    for bits in bit_vectors(3):
        for vals in itertools.product((0.0, theta, 2 * theta), repeat=3):
            x = profile(bits, vals)
            base = mech.output_dist(x)
            for i in range(3):
                for nbr in neighbor_profiles(mech, x, i, NeighborRelation.GENERAL):
                    assert dp_level(base, mech.output_dist(nbr)) <= eps + 1e-9


def test_alg1_monotonic_invariance_beyond_threshold():
    # every monotonic neighbor of a beyond-threshold bit-1 player yields a
    # byte-identical law and leaves everyone else's payment alone
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 0, 1, 1], [7.0, 0.0, 1.0, 2.0])
    base_dist = mech.output_dist(x)
    base_pay = mech.pay_vector(x)
    neighbors = neighbor_profiles(mech, x, 0, NeighborRelation.MONOTONIC)
    assert neighbors
    for nbr in neighbors:
        assert mech.output_dist(nbr) == base_dist
        pay = mech.pay_vector(nbr)
        assert pay[1:] == base_pay[1:]


def test_candidate_set_nonempty_for_negative_valuations():
    mech = alg1(8.0, 0.5, 2)
    for bit in (0, 1):
        x = profile([bit, 0], [-3.0, 0.0])
        for rel in NeighborRelation:
            assert neighbor_profiles(mech, x, 0, rel)


@given(
    st.integers(0, 1),
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
)
@settings(deadline=None, max_examples=150)
def test_candidate_set_is_distribution_complete(bit, valuation):
    # the canonical candidates must reach every output-law class that ANY
    # admissible type reaches; classes of the budget mechanism are the
    # counted-sum contributions {0, 1} of player 0
    mech = alg1(8.0, 0.5, 2)  # theta = 2
    x = profile([bit, 0], [valuation, 0.0])
    # brute scan over a wide type ladder around every relevant landmark
    theta = mech.params.theta
    ladder = sorted(
        {valuation + d for d in (-1.0, -0.5, 0.0, 0.5, 1.0)}
        | {-50.0, 0.0, theta / 2, theta, theta * 1.5, 50.0}
    )
    brute = [PlayerType(b, w) for b in (0, 1) for w in ladder]
    for rel in NeighborRelation:
        reachable = {
            mech.law_key(y) for y in neighbor_profiles(mech, x, 0, rel, brute)
        }
        canonical = {
            mech.law_key(y) for y in neighbor_profiles(mech, x, 0, rel)
        }
        assert canonical == reachable


# --- subsampling -----------------------------------------------------------

def test_subsample_full_sample_is_exact():
    mech = subsample(1.5, 4, 4)
    x = profile([1, 0, 1, 1], [2.0, 0.0, 1.0, 9.0])
    d = mech.output_dist(x)
    assert d.support == (3,) and d.probs == (1.0,)
    out = mech.sample(x, 3)
    assert out.count == 3 and out.payments == (1.5,) * 4


def test_subsample_law_matches_subset_enumeration():
    # oracle: enumerate all C(10,5) subsets directly
    n, k = 10, 5
    bits = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    mech = subsample(0.5, k, n)
    x = profile(bits, [0.0] * n)
    law = mech.output_dist(x)
    counts = {}
    subsets = list(itertools.combinations(range(n), k))
    for sub in subsets:
        m = sum(bits[j] for j in sub)
        c = round(Fraction(n * m, k))
        counts[c] = counts.get(c, 0) + 1
    oracle = {c: cnt / len(subsets) for c, cnt in counts.items()}
    assert set(law.support) == set(oracle)
    for c, p in zip(law.support, law.probs):
        assert p == pytest.approx(oracle[c], abs=1e-12)
    assert law.truncation_mass == 0.0


def _fraction_subsample_law(n, k, ones):
    # the law with every weight and count taken through Fraction, summed in
    # the same order as the implementation
    atoms = {}
    for m in range(max(0, k - (n - ones)), min(k, ones) + 1):
        weight = Fraction(math.comb(ones, m) * math.comb(n - ones, k - m), math.comb(n, k))
        count = round(Fraction(n * m, k))
        atoms[count] = atoms.get(count, 0.0) + float(weight)
    return tuple(sorted(atoms)), tuple(atoms[c] for c in sorted(atoms))


def test_subsample_law_equals_fraction_oracle():
    law = _subsample_law.__wrapped__  # bypass the cache: ~22k laws
    for n in range(1, 41):
        for k in range(1, n + 1):
            for ones in range(n + 1):
                d = law(n, k, ones)
                assert (d.support, d.probs) == _fraction_subsample_law(n, k, ones), (n, k, ones)


def test_subsample_ignores_declarations():
    mech = subsample(1.0, 2, 5)
    bits = [1, 0, 1, 0, 0]
    a = profile(bits, [0.0] * 5)
    b = profile(bits, [9.0, -4.0, 2.0, 0.0, 1e5])
    assert mech.output_dist(a) == mech.output_dist(b)
    assert mech.pay_vector(a) == mech.pay_vector(b) == (1.0,) * 5


def test_subsample_params_validation():
    with pytest.raises(ValueError):
        SubsampleParams(1.0, 5, 4)
    with pytest.raises(ValueError):
        SubsampleParams(1.0, 3, 6, distinguishability_budget=3.0)  # k < C fails
    with pytest.raises(ValueError):
        SubsampleParams(-1.0, 2, 6)
    assert SubsampleParams(0.0, 2, 6, distinguishability_budget=3.0).sample_size == 2


# --- baselines -------------------------------------------------------------

def test_pay_declared_payments_and_law():
    mech = pay_declared(0.5, 2)
    x = profile([1, 0], [2.0, 0.0])
    assert mech.pay_vector(x) == (1.0, 0.0)
    assert mech.output_dist(x) == shifted_geom_dist(GeomParams(0.5), 1)
    zeros = profile([1, 0], [0.0, 0.0])
    assert mech.pay_vector(zeros) == (0.0, 0.0)
    for eps, n in ((0.0, 2), (-0.5, 2), (math.inf, 2), (math.nan, 2), (0.5, 0)):
        with pytest.raises(ValueError, match="epsilon" if n else "n must"):
            pay_declared(eps, n)


def test_exact_sum_point_mass():
    mech = exact_sum(3)
    x = profile([1, 1, 0], [5.0, 0.0, 2.0])
    d = mech.output_dist(x)
    assert d.support == (2,) and d.probs == (1.0,) and d.truncation_mass == 0.0
    assert mech.pay_vector(x) == (0.0,) * 3
    assert mech.sample(x, 0).count == 2
    assert exact_sum(3, flat_pay=1.5).pay_vector(x) == (1.5,) * 3


def test_max_zero_valuation_pay():
    assert max_zero_valuation_pay(alg1(8.0, 0.5, 4)) == 2.0
    assert max_zero_valuation_pay(exact_sum(3, 0.25)) == 0.25
    assert max_zero_valuation_pay(pay_declared(0.5, 2)) == 0.0
    # the default 2^n scan refuses n above the cap instead of running for hours
    with pytest.raises(ValueError, match="cap of 24"):
        ConstantMechanism(25).max_zero_valuation_pay()


def _bundled_mechanisms(n):
    for budget in (0.1, 1.0, 8.0, 3.0 * n):
        for eps in (0.05, 0.5, math.log(2.0), 3.0):
            yield alg1(budget, eps, n)
            yield alg1_prime(budget, eps, n)
    for eps in (0.05, 0.5, 3.0):
        yield pay_declared(eps, n)
    for pay in (0.0, 0.25, 1.0 / 3.0, 7.5):
        yield exact_sum(n, pay)
        for k in sorted({1, (n + 1) // 2, n}):
            yield subsample(pay, k, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_max_zero_valuation_pay_closed_forms_match_scan(n):
    # the base-class 2^n scan is the oracle for every closed form
    for mech in _bundled_mechanisms(n):
        assert mech.max_zero_valuation_pay() == Mechanism.max_zero_valuation_pay(mech), mech.cache_token


# --- sampling agrees with the exact laws ------------------------------------

@pytest.mark.parametrize(
    "mech,x",
    [
        (alg1(8.0, math.log(2.0), 4), profile([1, 1, 0, 1], [0.0, 3.0, 0.0, 0.0])),
        (subsample(1.0, 2, 6), profile([1, 0, 1, 1, 0, 1], [0.0] * 6)),
    ],
)
def test_empirical_law_matches_output_dist(mech, x):
    rng = random.Random(99)
    trials = 20000
    freq = {}
    for _ in range(trials):
        c = mech.sample(x, rng).count
        freq[c] = freq.get(c, 0) + 1
    d = mech.output_dist(x)
    for k, p in zip(d.support, d.probs):
        if p < 1e-4:
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(freq.get(k, 0) / trials - p) <= 3.0 * sigma


def one_draw_oracle(mech, x, rng):
    """One published count drawn as the one-draw samplers did before the
    batch hook: the counted bits plus one noise draw, a fresh k-subset, or no draw."""
    if isinstance(mech, ShiftedGeometricMechanism):
        return mech.law_key(x) + oracle_sample_geom(mech.geom, rng)
    if isinstance(mech, SubsampleMechanism):
        n, k = mech.params.n, mech.params.sample_size
        m = sum(x.players[j].bit for j in rng.sample(range(n), k))
        return round(Fraction(n * m, k))  # Fraction rounds half to even
    return mech.output_dist(x).support[0]  # exact_sum and the constant


SAMPLED = [
    alg1(6.0, math.log(2.0), 6),
    alg1_prime(6.0, 0.5, 6),
    subsample(1.0, 3, 6),
    pay_declared(0.5, 6),
    exact_sum(6, 0.5),
    ConstantMechanism(6),
]


@pytest.mark.parametrize("mech", SAMPLED, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", (0, 3, 91))
@pytest.mark.parametrize("trials", (1, 2, 50))
def test_sample_counts_draw_the_one_draw_stream(mech, seed, trials):
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    rng_a, rng_b, rng_c = random.Random(seed), random.Random(seed), random.Random(seed)
    batch = list(mech.sample_counts(x, rng_a, trials))
    assert batch == [mech.sample(x, rng_b).count for _ in range(trials)]
    assert batch == [one_draw_oracle(mech, x, rng_c) for _ in range(trials)]
    assert rng_a.getstate() == rng_b.getstate() == rng_c.getstate()
    assert list(mech.sample_counts(x, seed, trials)) == batch  # a seed int works too


def test_sample_counts_check_the_profile_before_drawing():
    mech = alg1(6.0, 0.5, 6)
    with pytest.raises(ValueError, match="players"):
        mech.sample_counts(profile([1, 0], [0.0, 0.0]), 0, 10)


def test_expected_pay_matches_sampled_payments():
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 1, 0, 1], [1.0, 3.0, 0.0, 2.0])
    rng = random.Random(5)
    for i in range(4):
        draws = [mech.sample(x, rng).payments[i] for _ in range(50)]
        assert sum(draws) / len(draws) == mech.expected_pay(x, i)  # deterministic payments


@pytest.mark.parametrize(
    "budget,eps,n",
    [(4.0, 0.5, 4), (8.0, 0.5, 4), (0.1, LN2, 6), (1e-323, 1.0, 1), (1e300, 0.5, 3), (3.0, 3.0, 2)],
    ids=["exact_tie", "theta_2", "ln2", "subnormal_theta", "huge_theta", "n2"],
)
def test_budget_candidates_and_deviations_match_their_expressions(budget, eps, n):
    # the candidate set as a dedupe of six valuations, and the budget
    # mechanisms' old deviation_valuations override, kept here as oracles:
    # the hoisted candidates and the default grid read from them give the
    # same types and floats, in order
    def old_candidates(mech, x, i):
        v, theta = x.players[i].valuation, mech.params.theta
        vals = dict.fromkeys((0.0, theta, 2.0 * theta, v, min(v, 0.0), max(v, 2.0 * theta)))
        return tuple(PlayerType(b, w) for w in vals for b in (0, 1))

    def old_grid(mech, x, i):
        theta = mech.params.theta
        return tuple(dict.fromkeys((0.0, theta, 2.0 * theta, x.players[i].valuation)))

    theta = BudgetParams(budget, eps, n).theta
    values = (
        0.0, -0.0, theta, math.nextafter(theta, math.inf), math.nextafter(theta, -math.inf), 2.0 * theta,
        -theta, -1.0, 1e300, -1e300, 5e-324, -5e-324,
    )
    for mech in (alg1(budget, eps, n), alg1_prime(budget, eps, n)):
        for bits in bit_vectors(n):
            for shift in range(len(values)):
                x = profile(bits, [values[(j + shift) % len(values)] for j in range(n)])
                for i in range(n):
                    got, want = mech.candidate_types(x, i), old_candidates(mech, x, i)
                    assert list(map(repr, got)) == list(map(repr, want)), (mech.name, str(x), i)
                    got, want = mech.deviation_valuations(x, i), old_grid(mech, x, i)
                    assert list(map(repr, got)) == list(map(repr, want)), (mech.name, str(x), i)


def test_default_log_pmf_table_reads_a_law_stored_in_full():
    # -inf off the support; a truncated law is refused, and the geometric
    # closed form reaches beyond the window
    assert exact_sum(3).log_pmf_table(2, (1, 2, 3)) == (-math.inf, 0.0, -math.inf)
    law = _subsample_law(4, 2, 3)
    assert subsample(1.0, 2, 4).log_pmf_table(3, (-1,) + law.support) == (-math.inf,) + tuple(map(math.log, law.probs))
    mech = alg1(6.0, 0.5, 3)
    far = mech.key_law(2).support[-1] + 5
    assert mech.log_pmf_table(2, (far,)) == (mech.geom.log_norm - 0.5 * (far - 2),)
    with pytest.raises(ValueError, match="needs a law stored in full"):
        Mechanism.log_pmf_table(mech, 2, (2,))


# --- declare ---------------------------------------------------------------

def _declared_values(theta):
    return (0.0, -0.0, theta, math.nextafter(theta, math.inf), math.nextafter(theta, -math.inf), 2.0 * theta, -1.0, 1e300)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_declare_matches_the_profile_building_default(n):
    theta = alg1(2.0 * n, 0.5, n).params.theta
    values = _declared_values(theta)
    for mech in _every_mechanism(n):
        for bits in bit_vectors(n):
            for vals in itertools.product((0.0, theta, 2.0 * theta), repeat=n):
                x = profile(bits, vals)
                for i in range(n):
                    got = mech.declare(x, i, values)
                    want = Mechanism.declare(mech, x, i, values)
                    assert len(got) == len(want) == len(values)
                    for (pay, _), (want_pay, _) in zip(got, want):
                        assert pay == want_pay and math.copysign(1.0, pay) == math.copysign(1.0, want_pay), mech.name
                    for (_, ka), (_, wa) in zip(got, want):
                        for (_, kb), (_, wb) in zip(got, want):
                            assert (ka == kb) == (wa == wb), (mech.name, str(x), i)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_declare_rejects_values_that_are_not_finite(bad):
    x = profile([1, 0], [0.5, 1.0])
    for mech in _every_mechanism(2):
        with pytest.raises(ValueError, match="valuation must be finite"):
            mech.declare(x, 0, (0.0, bad))


def test_declare_checks_the_profile_and_the_player():
    for mech in _every_mechanism(2):
        with pytest.raises(ValueError, match="players"):
            mech.declare(profile([1, 0, 1], [0.0, 0.0, 0.0]), 0, (0.0,))
        for i in (-1, 2):
            with pytest.raises(IndexError):
                mech.declare(profile([1, 0], [0.0, 0.0]), i, (0.0,))


# --- neighbour law keys ------------------------------------------------------

def _law_key_cases(n):
    """The five bundled mechanisms and the default hooks (ConstantMechanism),
    with the budget mechanisms' threshold theta."""
    theta = BudgetParams(4.0, 0.5, n).theta
    mechs = (
        alg1(4.0, 0.5, n), alg1_prime(4.0, 0.5, n), subsample(1.0, (n + 1) // 2, n),
        pay_declared(0.5, n), exact_sum(n), ConstantMechanism(n),
    )
    vals = (0.0, -0.0, -1.0, theta, math.nextafter(theta, -math.inf), math.nextafter(theta, math.inf),
            2.0 * theta, 1e300)
    return mechs, vals


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neighbor_law_keys_match_the_built_neighbor_profiles(n):
    mechs, vals = _law_key_cases(n)
    for mech in mechs:
        for bits in bit_vectors(n):
            # rotating the grid puts every valuation at every player
            for shift in range(len(vals)):
                x = profile(bits, [vals[(j + shift) % len(vals)] for j in range(n)])
                base_key, base = mech.law_key(x), mech.output_dist(x)
                assert mech.key_law(base_key) == base
                for i in range(n):
                    for rel in (NeighborRelation.GENERAL, NeighborRelation.MONOTONIC):
                        keyed = mech.neighbor_law_keys(x, i, rel)
                        built = neighbor_profiles(mech, x, i, rel)
                        assert [c for c, _ in keyed] == [y.players[i] for y in built]
                        for (_, key), y in zip(keyed, built):
                            law = mech.output_dist(y)
                            assert key == mech.law_key(y) and mech.key_law(key) == law
                            got, want = mech.law_distance(base_key, key), statistical_distance(base, law)
                            assert (got.lo, got.hi) == (want.lo, want.hi), (mech.name, x, i, rel)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counted_others_pays_group_types_as_the_default_does(n):
    # CountedMechanism's constant is sound iff no change of player i moves
    # another player's pay: the default slices the built pay_vector
    mechs, vals = _law_key_cases(n)
    for mech in mechs[:-1]:
        for bits in bit_vectors(n):
            for shift in range(len(vals)):
                x = profile(bits, [vals[(j + shift) % len(vals)] for j in range(n)])
                for i in range(n):
                    types = mech.candidate_types(x, i) + tuple(PlayerType(b, v) for b in (0, 1) for v in vals)
                    got = {mech.others_pays(x, i, t) for t in types}
                    want = {Mechanism.others_pays(mech, x, i, t) for t in types}
                    assert len(got) == len(want) == 1, (mech.name, str(x), i)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(0.05, 4.0),
    mass_tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14]),
    c=st.integers(-10**6, 10**6),
    data=st.data(),
)
def test_geometric_law_distance_is_the_window_kernel(eps, mass_tol, c, data):
    # the table keeps one entry per min(|d|, 2t + 1) and reads it at any shift c
    mech = pay_declared(eps, 1)
    t = window_radius(mech.geom, mass_tol)
    steps = [data.draw(st.integers(0, 2 * t + 3)), 2 * t + 1, 2 * t + 2, 5 * t + 7]
    for d in steps + [-d for d in steps]:
        got = mech.law_distance(c, c + d, mass_tol)
        want = statistical_distance(shifted_geom_dist(mech.geom, c, mass_tol), shifted_geom_dist(mech.geom, c + d, mass_tol))
        assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), d
    assert len(mech._distances) <= 2 * t + 2
