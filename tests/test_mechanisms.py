import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbuy.audits import audit_general_impossibility
from privbuy.core import InputProfile, Mechanism, NeighborRelation, PlayerType
from privbuy.distributions import GeomParams, dp_level, shifted_geom_dist, statistical_distance, window_radius
from privbuy.mechanisms import (
    BudgetParams,
    CountedMechanism,
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

from privbuy.losses import increasing_threshold_model, neighbor_distances, zero_loss
from privbuy.verifiers import AccuracySpec, check_accuracy, check_truthful

from conftest import (
    ConstantMechanism,
    SwapPayMechanism,
    bit_vectors,
    max_zero_valuation_pay_scan,
    neighbor_profiles,
    oracle_sample_geom,
    profile,
)

LN2 = math.log(2.0)


# --- budget mechanism ------------------------------------------------------

def test_alg1_worked_example():
    # B=8, eps=0.5, n=4 gives theta=2; player 1 (valuation 3) is zeroed out
    mech = alg1(8.0, 0.5, 4)
    x = profile([1, 1, 0, 1], [1.0, 3.0, 0.0, 2.0])
    assert mech.params.theta == pytest.approx(2.0)
    assert mech.pay_vector(x) == (2.0, 0.0, 2.0, 2.0)
    assert mech.law_key(x) == 2
    counts = list(mech.output_dist(x).sample(random.Random(11), 5))
    assert list(mech.output_dist(x).sample(random.Random(11), 5)) == counts  # deterministic given the seed


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
        assert tuple(mech.retype(x, i, (x.players[i],))[0][0] for i in range(n)) == want


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
def test_retype_to_own_type_is_pay_vector_entry(n):
    # retyping player i to the type they hold leaves x as it is: the pay is
    # pay_vector(x)[i] and the key law_key(x)
    rng = random.Random(n)
    for _ in range(20):
        x = profile(
            [rng.randint(0, 1) for _ in range(n)],
            [rng.choice([0.0, -0.0, 1.0, 2.0, 3.5, -2.0, 1e12]) for _ in range(n)],
        )
        for mech in _every_mechanism(n):
            pays, key = mech.pay_vector(x), mech.law_key(x)
            for i in range(n):
                [(pay, retyped_key, _)] = mech.retype(x, i, (x.players[i],))
                assert (pay, retyped_key) == (pays[i], key), (mech.name, i)


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
                    support = sorted(set(base.support).union(mech.output_dist(nbr).support))
                    rows = (mech.log_pmf_table(mech.law_key(y), support) for y in (x, nbr))
                    assert dp_level(*rows) <= eps + 1e-9


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
    assert list(d.sample(random.Random(3), 5)) == [3] * 5
    assert mech.pay_vector(x) == (1.5,) * 4


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


@pytest.mark.parametrize("n, k", [(64, 32), (256, 128), (256, 100), (255, 128)])
def test_subsample_law_equals_fraction_oracle_at_large_n(n, k):
    # (256, 100) rescales by 2.56 per sampled one; 255 is odd, so no law
    # there is a reflection
    law = _subsample_law.__wrapped__
    oracle = [_fraction_subsample_law(n, k, ones) for ones in range(n + 1)]
    for ones in range(n + 1):
        d = law(n, k, ones)
        assert (d.support, d.probs) == oracle[ones], (n, k, ones)
        if n % 2 == 0:
            support, probs = oracle[n - ones]
            assert d.support == tuple(n - c for c in reversed(support)) and d.probs == probs[::-1]


@pytest.mark.parametrize("n", (1100, 2048))
def test_subsample_law_stores_no_atom_as_zero(n):
    # from n = 1082 at k = n/2 the outermost weights over C(n, k) round to
    # 0.0; each is stored as the least subnormal, which bounds it from above
    k = n // 2
    for ones in (1, k - 1, k, k + 1, n - 1):
        d = _subsample_law.__wrapped__(n, k, ones)
        assert min(d.probs) > 0.0 and d.truncation_mass == 0.0, ones
        assert (math.ulp(0.0) in d.probs) == (abs(ones - k) <= 1), ones


def _fraction_log_pmf(n, k, ones, pick=lambda ms: ms):
    """{count: ln Pr[count]} of the subsample law at the m that ``pick``
    keeps of its range (every m by default), from Fraction weights: each is
    scaled into [1/2, 2] before its one rounding to a double, so none
    underflows."""
    out = {}
    for m in pick(range(max(0, k - (n - ones)), min(k, ones) + 1)):
        weight = Fraction(math.comb(ones, m) * math.comb(n - ones, k - m), math.comb(n, k))
        e = weight.denominator.bit_length() - weight.numerator.bit_length()
        out[round(Fraction(n * m, k))] = math.log(weight * Fraction(2) ** e) - e * math.log(2.0)
    return out


def test_subsample_log_pmf_table_equals_fraction_oracle():
    for n in range(1, 25):
        support = tuple(range(-1, n + 2))
        for k in range(1, n + 1):
            mech = subsample(1.0, k, n)
            for ones in range(n + 1):
                oracle = _fraction_log_pmf(n, k, ones)
                want = [oracle.get(s, -math.inf) for s in support]
                assert mech.log_pmf_table(ones, support) == pytest.approx(want, abs=1e-12), (n, k, ones)


@pytest.mark.parametrize("n", (1100, 2048))
def test_subsample_log_pmf_table_at_subnormal_atoms(n):
    # the outermost atoms are subnormal or stored as 2^-1074; their ln comes
    # from the integer weights (at (1100, 550, 550) the end atom's is
    # -758.73, where ln 2^-1074 reads -744.44)
    k = n // 2
    mech = subsample(1.0, k, n)
    for ones in (1, k - 1, k, k + 1, n - 1):
        oracle = _fraction_log_pmf(n, k, ones, lambda ms: {*ms[:8], *ms[-8:]})
        support = tuple(sorted(oracle))
        assert mech.log_pmf_table(ones, support) == pytest.approx([oracle[s] for s in support], abs=1e-12), ones


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
    # NaN and -inf are no budget k < C could meet; only +inf is unconstrained
    for c in (math.nan, -math.inf, 2.0):
        with pytest.raises(ValueError, match="must be < budget C"):
            subsample(1.0, 2, 4, c)
    assert subsample(1.0, 2, 4, math.inf).distinguishability_budget == math.inf


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


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_sum_point_mass(n):
    # a point mass at every count of ones, the even-n reflection included
    mech = exact_sum(n)
    for ones in range(n + 1):
        x = profile([1] * ones + [0] * (n - ones), ([5.0, 0.0, 2.0, -1.0] * 2)[:n])
        d = mech.output_dist(x)
        assert (d.support, d.probs, d.truncation_mass) == ((ones,), (1.0,), 0.0), ones
        assert list(d.sample(random.Random(0), 3)) == [ones] * 3
        assert mech.pay_vector(x) == (0.0,) * n
        assert exact_sum(n, flat_pay=1.5).pay_vector(x) == (1.5,) * n


def test_max_zero_valuation_pay():
    assert max_zero_valuation_pay(alg1(8.0, 0.5, 4)) == 2.0
    assert max_zero_valuation_pay(exact_sum(3, 0.25)) == 0.25
    assert max_zero_valuation_pay(pay_declared(0.5, 2)) == 0.0
    # a custom mechanism has no default cap: the tradeoff audit needs its max_pay
    with pytest.raises(ValueError, match="'constant' has no closed-form .* give the tradeoff audit's max_pay"):
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
    # the 2^n scan is the oracle for every closed form
    for mech in _bundled_mechanisms(n):
        assert mech.max_zero_valuation_pay() == max_zero_valuation_pay_scan(mech), mech.name


@pytest.mark.parametrize("n", range(1, 7))
def test_general_audit_pay_cap_matches_closed_form_and_scan(n):
    # the general audit reads P from its chain's all-indifferent hybrids
    model = increasing_threshold_model(1.0 / (6 * n), relation=NeighborRelation.GENERAL)
    for mech in _bundled_mechanisms(n):
        cap = dict(audit_general_impossibility(mech, model).params)["P"]
        assert cap == mech.max_zero_valuation_pay() == max_zero_valuation_pay_scan(mech), mech.name


# --- sampling agrees with the exact laws ------------------------------------

def reference_draw(mech, x, rng):
    """One published count drawn as each bundled mechanism is defined,
    not from its law: the counted bits plus one geometric noise draw, the
    rescaled 1-bits of a fresh k-subset, or the bit sum itself."""
    if isinstance(mech, ShiftedGeometricMechanism):
        count = sum(p.bit for p in x.players if mech.counts(p.valuation))
        return count + oracle_sample_geom(mech.geom, rng)
    if mech.name == "exact_sum":
        return x.bit_sum()
    assert isinstance(mech, SubsampleMechanism)
    n, k = mech.params.n, mech.params.sample_size
    m = sum(x.players[j].bit for j in rng.sample(range(n), k))
    return round(Fraction(n * m, k))  # Fraction rounds half to even


@pytest.mark.parametrize(
    "mech,x",
    [
        (alg1(8.0, math.log(2.0), 4), profile([1, 1, 0, 1], [0.0, 3.0, 0.0, 0.0])),
        (subsample(1.0, 2, 6), profile([1, 0, 1, 1, 0, 1], [0.0] * 6)),
        (alg1_prime(6.0, 0.5, 6), profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])),
        (pay_declared(0.5, 4), profile([1, 0, 1, 1], [0.5, 2.0, 0.0, 1.0])),
        # n*m/k = 2.5 at m = 1: round half to even gives 2
        (subsample(1.0, 2, 5), profile([1, 1, 0, 1, 0], [0.0] * 5)),
        (exact_sum(4), profile([1, 0, 1, 1], [0.0] * 4)),
    ],
)
def test_empirical_law_matches_output_dist(mech, x):
    # the closed-form law against draws made as the mechanism is defined
    rng = random.Random(99)
    trials = 20000
    freq = {}
    for _ in range(trials):
        c = reference_draw(mech, x, rng)
        freq[c] = freq.get(c, 0) + 1
    d = mech.output_dist(x)
    assert set(freq) <= set(d.support)
    for k, p in zip(d.support, d.probs):
        if p < 1e-4:
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(freq.get(k, 0) / trials - p) <= 3.0 * sigma


def one_draw_oracle(mech, x, rng):
    """One published count drawn by exact inversion of ``output_dist``: the
    first atom whose running mass, summed as Fractions, exceeds one
    ``rng.random()``, or None past the stored mass."""
    u, run = Fraction(rng.random()), Fraction(0)
    d = mech.output_dist(x)
    for count, p in zip(d.support, d.probs):
        run += Fraction(p)
        if u < run:
            return count
    return None


SAMPLED = [
    alg1(6.0, math.log(2.0), 6),
    alg1_prime(6.0, 0.5, 6),
    subsample(1.0, 3, 6),
    pay_declared(0.5, 6),
    exact_sum(6, 0.5),
    ConstantMechanism(6),  # a custom mechanism samples its law too
]


@pytest.mark.parametrize("mech", SAMPLED, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", (0, 3, 91))
@pytest.mark.parametrize("trials", (1, 2, 50))
def test_sample_counts_draw_the_one_draw_stream(mech, seed, trials):
    x = profile([1, 1, 0, 1, 0, 1], [0.0, 3.0, 0.5, 0.1, 2.0, 0.2])
    rng_a, rng_b, rng_c = random.Random(seed), random.Random(seed), random.Random(seed)
    d = mech.output_dist(x)
    batch = list(d.sample(rng_a, trials))
    assert batch == [c for _ in range(trials) for c in d.sample(rng_b, 1)]
    assert batch == [one_draw_oracle(mech, x, rng_c) for _ in range(trials)]
    assert rng_a.getstate() == rng_b.getstate() == rng_c.getstate()


class CountingRandom(random.Random):
    """A random.Random that counts its ``random`` and ``getrandbits`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"random": 0, "getrandbits": 0}

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def getrandbits(self, k):
        self.calls["getrandbits"] += 1
        return super().getrandbits(k)


def test_a_draw_takes_one_random_call_whatever_the_sample_size():
    # one uniform per draw: a subsample draw no longer picks k players
    n = 1000
    mech = subsample(1.0, 500, n)
    x = profile([1, 0] * (n // 2), [0.0] * n)
    rng = CountingRandom(5)
    counts = list(mech.output_dist(x).sample(rng, 1000))
    assert rng.calls == {"random": 1000, "getrandbits": 0}
    assert set(counts) <= set(mech.output_dist(x).support)


def test_sample_counts_check_the_profile_before_drawing():
    # the law refuses a profile of the wrong size, so nothing is drawn from it
    mech, x = alg1(6.0, 0.5, 6), profile([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError, match="players"):
        mech.output_dist(x)
    with pytest.raises(ValueError, match="players"):
        check_accuracy(mech, x, AccuracySpec(0.5, 0.5, 0.5), method="monte_carlo", trials=10, seed=0)


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
                    got, want = [t.valuation for t in mech.deviation_types(x, i)], old_grid(mech, x, i)
                    assert list(map(repr, got)) == list(map(repr, want)), (mech.name, str(x), i)


def test_default_log_pmf_table_reads_a_law_stored_in_full():
    # -inf off the support; a truncated law is refused, and the geometric
    # closed form reaches beyond the window
    assert Mechanism.log_pmf_table(exact_sum(3), 2, (1, 2, 3)) == (-math.inf, 0.0, -math.inf)
    law = _subsample_law(4, 2, 3)
    want = (-math.inf,) + tuple(map(math.log, law.probs))
    # subsample's own table agrees wherever the atoms are normal
    for table in (Mechanism.log_pmf_table, SubsampleMechanism.log_pmf_table):
        assert table(subsample(1.0, 2, 4), 3, (-1,) + law.support) == want
    mech = alg1(6.0, 0.5, 3)
    far = mech.key_law(2).support[-1] + 5
    assert mech.log_pmf_table(2, (far,)) == (mech.geom.log_norm - 0.5 * (far - 2),)
    with pytest.raises(ValueError, match="needs a law stored in full"):
        Mechanism.log_pmf_table(mech, 2, (2,))


@pytest.mark.parametrize("factory", [lambda: alg1(6.0, 0.5, 3), lambda: pay_declared(LN2, 3), lambda: alg1(6.0, 40.0, 3)])
def test_sliced_geometric_log_pmf_table_is_the_closed_form(factory):
    mech = factory()
    window = mech.key_law(0).support
    cases = [
        (0, window),  # centred on the key
        (2, window),  # the key right of the support
        (-3, window),  # the key left of the support
        (1, (1,)),
        (40, tuple(range(-5, 3))),  # the key far right of the support
        (0, window),  # the same table asked again
        (-60, tuple(range(-70, -65))),  # the key far left of the support
        (1, (-2, 0, 3, 4)),  # not contiguous
        (1, ()),
    ]
    for key, support in cases:
        got = mech.log_pmf_table(key, support)
        want = tuple(mech.geom.log_norm - mech.epsilon * abs(s - key) for s in support)
        assert type(got) is tuple and [r.hex() for r in got] == [r.hex() for r in want], (key, support)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_deviation_types_are_the_valuation_grid(n):
    # the valuation grids deviation_valuations returned, kept here as oracles:
    # the default's candidate valuations plus the truth, and pay_declared's
    # four points; every type holds player i's bit
    def old_grid(mech, x, i):
        v = x.players[i].valuation
        if mech.name == "pay_declared":
            return tuple(dict.fromkeys((0.0, v + 1.0, 100.0 * (abs(v) + 1.0), v)))
        return tuple(dict.fromkeys([t.valuation for t in mech.candidate_types(x, i)] + [v]))

    mechs, vals = _law_key_cases(n)
    for mech in mechs:
        for bits in bit_vectors(n):
            for shift in range(len(vals)):
                x = profile(bits, [vals[(j + shift) % len(vals)] for j in range(n)])
                for i in range(n):
                    got = mech.deviation_types(x, i)
                    assert {t.bit for t in got} == {x.players[i].bit}
                    want = old_grid(mech, x, i)
                    assert [repr(t.valuation) for t in got] == list(map(repr, want)), (mech.name, str(x), i)


# --- retype ------------------------------------------------------------------

def _partition(items):
    """For each item, the index of the first item equal to it: two lists
    with equal partitions have the same equalities."""
    return [next(j for j, b in enumerate(items) if b == a) for a in items]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_retype_matches_the_profile_building_default(n):
    theta = BudgetParams(2.0 * n, 0.5, n).theta
    vals = (0.0, -0.0, theta, math.nextafter(theta, math.inf), math.nextafter(theta, -math.inf), 2.0 * theta, -1.0, 1e300)
    types = tuple(PlayerType(b, v) for v in vals for b in (0, 1))
    mechs = list(_every_mechanism(n)) + ([SwapPayMechanism()] if n == 2 else [])
    for mech in mechs:
        for bits in bit_vectors(n):
            # rotating the grid puts every valuation at every player
            for shift in range(len(vals)):
                x = profile(bits, [vals[(j + shift) % len(vals)] for j in range(n)])
                for i in range(n):
                    got = mech.retype(x, i, types)
                    want = Mechanism.retype(mech, x, i, types)
                    assert len(got) == len(want) == len(types)
                    for (pay, _, _), (want_pay, _, _) in zip(got, want):
                        assert pay == want_pay and math.copysign(1.0, pay) == math.copysign(1.0, want_pay), mech.name
                    for part in (1, 2):  # keys, then the others' pays
                        got_part = _partition([r[part] for r in got])
                        assert got_part == _partition([r[part] for r in want]), (mech.name, str(x), i, part)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_declare_rejects_values_that_are_not_finite(bad):
    # a declared deviation becomes player i's type, which refuses it
    x = profile([1, 0], [0.5, 1.0])
    for mech in _every_mechanism(2):
        with pytest.raises(ValueError, match="valuation must be finite"):
            check_truthful(mech, zero_loss(), x, 0, (0.0, bad))


def test_retype_checks_the_profile_and_the_player():
    t = (PlayerType(0, 0.0),)
    for mech in _every_mechanism(2):
        with pytest.raises(ValueError, match="players"):
            mech.retype(profile([1, 0, 1], [0.0, 0.0, 0.0]), 0, t)
        for i in (-1, 2):
            with pytest.raises(IndexError):
                mech.retype(profile([1, 0], [0.0, 0.0]), i, t)


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
                        built = neighbor_profiles(mech, x, i, rel)
                        cands = [y.players[i] for y in built]
                        pairs = neighbor_distances(mech, x, i, rel)
                        assert [c for c, _ in pairs] == cands
                        for (_, key, _), (_, got), y in zip(mech.retype(x, i, cands), pairs, built):
                            law = mech.output_dist(y)
                            assert key == mech.law_key(y) and mech.key_law(key) == law
                            want = statistical_distance(base, law)
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
                    got = {others for _, _, others in mech.retype(x, i, types)}
                    want = {others for _, _, others in Mechanism.retype(mech, x, i, types)}
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


# --- the count memo and the counted distance table --------------------------

_COUNTED = {
    "alg1": lambda n: alg1(4.0, 0.5, n),
    "alg1_prime": lambda n: alg1_prime(4.0, 0.5, n),
    "subsample": lambda n: subsample(1.0, (n + 1) // 2, n),
    "pay_declared": lambda n: pay_declared(0.5, n),
    "exact_sum": lambda n: exact_sum(n),
}


@pytest.mark.parametrize("name", list(_COUNTED))
def test_counted_memo_answers_as_a_fresh_instance(name):
    # one instance reads its one-slot memo across interleaved profiles: two
    # share one players tuple, and the rest are built and dropped in turn,
    # so a freed tuple's identity could be reused were the slot not holding it
    n, make = 4, _COUNTED[name]
    mech = make(n)
    by_bit = (PlayerType(0, 0.0), PlayerType(1, 0.0))

    def count_and_drop(bits):
        mech.law_key(InputProfile(tuple([by_bit[b] for b in bits])))

    for bits in bit_vectors(n):
        count_and_drop(bits)
        # CPython hands the dropped tuple's address to the next tuple of its size
        y = InputProfile(tuple([by_bit[1 - b] for b in bits]))
        assert mech.law_key(y) == make(n).law_key(y), (name, bits)

    mech = make(n)
    vals = (0.0, 1.0, 2.0, 4.0, -1.0)  # theta = 1 for alg1(4, 0.5, 4)
    kept = profile([1, 0, 1, 1], [0.0, 2.0, 1.0, 4.0])
    twin = InputProfile(kept.players)
    assert twin.players is kept.players
    for step, bits in enumerate(bit_vectors(n)):
        x = profile(bits, [vals[(j + step) % len(vals)] for j in range(n)])
        for y in (x, kept, x, twin, kept):
            i = step % n
            types = mech.candidate_types(y, i)
            assert mech.law_key(y) == make(n).law_key(y), (name, str(y))
            assert mech.others_key(y, i) == make(n).others_key(y, i), (name, str(y), i)
            assert mech.retype(y, i, types) == make(n).retype(y, i, types), (name, str(y), i)


_MOVE_TYPES = st.builds(
    PlayerType, st.integers(0, 1), st.sampled_from([0.0, 1.0, 2.0, 4.0, -1.0]) | st.floats(-50, 50, allow_nan=False)
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(_COUNTED)), start=st.lists(_MOVE_TYPES, min_size=1, max_size=6), data=st.data())
def test_move_carries_the_count_from_any_profile(name, start, data):
    # moves from the profile in the slot, from earlier profiles and after a
    # law_key on another profile: every profile reached keys as a recount
    n, make = len(start), _COUNTED[name]
    mech, reached = make(n), [InputProfile(tuple(start))]
    for _ in range(data.draw(st.integers(1, 12))):
        x = reached[data.draw(st.integers(0, len(reached) - 1))]
        if data.draw(st.booleans()):
            mech.law_key(x)
            continue
        i, t = data.draw(st.integers(0, n - 1)), data.draw(_MOVE_TYPES)
        y = mech.move(x, i, t)
        assert y == x.with_player(i, t)
        assert mech.law_key(y) == mech._counted(y.players) == make(n).law_key(y), (name, str(x), i, t)
        assert [mech.others_key(y, j) for j in range(n)] == [make(n).others_key(y, j) for j in range(n)]
        reached.append(y)
    for bad in (-1, n):
        with pytest.raises(IndexError):
            mech.move(reached[-1], bad, PlayerType(1, 0.0))
    assert mech.law_key(reached[0]) == make(n).law_key(reached[0])
    # a mechanism without a summary moves by with_player alone
    x, t = reached[-1], data.draw(_MOVE_TYPES)
    assert ConstantMechanism(n).move(x, n - 1, t) == x.with_player(n - 1, t)


def test_counted_memo_shared_by_threads_only_misses():
    # more threads than cores hammer one instance's slot at a short switch
    # interval; a slot read torn between two profiles would give a wrong count
    n = 64
    mech = alg1(8.0, 0.5, n)
    profiles = [profile([1] * k + [0] * (n - k), [0.0] * n) for k in (0, n // 2, n)]
    wrong = []

    def work(offset):
        for k in range(2000):
            x = profiles[(k + offset) % len(profiles)]
            if mech.law_key(x) != sum(x.bits) or mech.others_key(x, 0) != sum(x.bits[1:]):
                wrong.append(str(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("name", ["subsample", "exact_sum"])
def test_counted_law_distance_table_holds_keys_at_most_one_apart(name):
    n = 6
    mech = _COUNTED[name](n)
    assert type(mech).law_distance is CountedMechanism.law_distance
    for mass_tol in (1e-9, 1e-12):
        for k1, k2 in itertools.product(range(n + 1), repeat=2):
            got = mech.law_distance(k1, k2, mass_tol)
            want = statistical_distance(mech.key_law(k1, mass_tol), mech.key_law(k2, mass_tol))
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex()), (k1, k2)
    assert len(mech._distances) == 2 * (2 * n + 1)  # n + 1 equal pairs and n one apart per mass_tol
