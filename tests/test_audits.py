import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from privbuy.audits import (
    ACCURACY_SACRIFICED,
    ACCURACY_VIOLATED,
    IMPOSSIBILITY_RESPECTED,
    IR_VIOLATED,
    HybridChain,
    TradeoffParams,
    audit_general_impossibility,
    audit_monotonic_impossibility,
    audit_payment_accuracy_tradeoff,
)
from privbuy.core import NeighborRelation, PlayerType
from privbuy.distributions import CountDistribution, Interval
from privbuy.losses import growing_sd_model, increasing_threshold_model, zero_loss
from privbuy.mechanisms import alg1, exact_sum, max_zero_valuation_pay, pay_declared, subsample

from conftest import ConstantMechanism, PointMass, chain_inputs, chain_probes, profile

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC
LN2 = math.log(2.0)


# --- test-only mechanisms for the rungs no bundled mechanism reaches ----------

class InfinitePay(ConstantMechanism):
    def pay_vector(self, x):
        self.require_profile(x)
        return (math.inf,) * self.player_count


class NanPay(ConstantMechanism):
    """Pays NaN to player ``who`` and nothing to the others."""

    def __init__(self, n, who):
        super().__init__(n)
        self.who = who

    def pay_vector(self, x):
        self.require_profile(x)
        return tuple([math.nan if j == self.who else 0.0 for j in range(x.n)])


class TwoFacedLaw(PointMass):
    """A law with two faces: its ``law_key``, which the distance pass reads,
    is the point mass at 0, and its ``output_dist``, which the accuracy
    checks read, is PointMass's. A fixed law cannot pass the tradeoff
    audit's step caps and then hold or straddle accuracy at every hybrid
    (the theorem forbids it); this one shows the distance pass a still law
    and the accuracy pass one that tracks the bit sum."""

    def law_key(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((0,), (1.0,), 0.0)


def general_model(delta):
    return increasing_threshold_model(delta, relation=GEN)


def monotonic_model(delta):
    return increasing_threshold_model(delta, relation=MON)


# --- general impossibility ---------------------------------------------------

def test_exact_sum_flagged_at_ir():
    for n in (2, 3):
        delta = 1.0 / (6 * n)
        report = audit_general_impossibility(exact_sum(n), general_model(delta), delta=delta)
        assert report.verdict == IR_VIOLATED
        assert report.failing_step == 0
        assert report.chain.end_to_end == Interval(1.0, 1.0)
        assert len(chain_inputs(report.chain)) == 2 * n + 1
        # P = 0 so the threshold valuation is T(0) = 1
        assert report.chain.thresholds == (1.0,) * n


def test_constant_mechanism_respects_impossibility():
    n = 3
    report = audit_general_impossibility(ConstantMechanism(n), general_model(1.0 / (6 * n)))
    assert report.verdict == IMPOSSIBILITY_RESPECTED
    assert report.chain.end_to_end == Interval(0.0, 0.0)
    assert all(d == Interval(0.0, 0.0) for d in report.chain.step_distances)
    # the all-ones endpoint is where (1/2, 1/3)-accuracy breaks
    assert report.accuracy[1].verdict == "fail"
    assert report.accuracy[0].verdict == "pass"


def test_budget_mechanism_flagged_at_ir_under_general_model():
    mech = alg1(4.0, LN2, 2)
    delta = 1.0 / 12.0
    report = audit_general_impossibility(mech, general_model(delta), delta=delta)
    assert report.verdict == IR_VIOLATED
    assert report.failing_step == 0
    # P = B/n = 2, L = 3: the probe player sits beyond theta, and a
    # qualifying bit-1 neighbor moves the law by a unit shift (1/3 >= delta)
    assert dict(report.params)["P"] == 2.0
    assert dict(report.params)["L"] == 3.0
    assert "IR VIOLATED" in report.witness


def test_general_audit_validations():
    mech = alg1(4.0, LN2, 2)
    with pytest.raises(ValueError):
        audit_general_impossibility(mech, general_model(1.0 / 12.0), delta=0.2)  # > 1/(6n)
    with pytest.raises(ValueError):
        audit_general_impossibility(mech, zero_loss())  # no threshold function
    with pytest.raises(ValueError):
        audit_general_impossibility(mech, monotonic_model(1.0 / 12.0), delta=1.0 / 12.0)
    with pytest.raises(ValueError):
        audit_general_impossibility(mech, general_model(1.0 / 24.0), delta=1.0 / 12.0)  # delta mismatch
    with pytest.raises(ValueError):
        audit_general_impossibility(mech, general_model(0.2))  # the model's delta > 1/(6n)


def test_general_audit_deterministic():
    mech = alg1(4.0, LN2, 2)
    a = audit_general_impossibility(mech, general_model(1.0 / 12.0), delta=1.0 / 12.0)
    b = audit_general_impossibility(mech, general_model(1.0 / 12.0), delta=1.0 / 12.0)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize(
    "audit, model, delta, verdict",
    [
        (audit_general_impossibility, general_model, 1.0 / 48.0, "ir_violated"),
        (audit_monotonic_impossibility, monotonic_model, 1.0 / 24.0, "accuracy_sacrificed"),
    ],
    ids=["general", "monotonic"],
)
def test_audits_read_delta_from_the_model(audit, model, delta, verdict):
    # below the cap 1/(6n) or 1/(3n), so the cap is not the delta the model was built for
    mech = alg1(4.0, 0.5, 4)
    report = audit(mech, model(delta))
    assert report == audit(mech, model(delta), delta=delta)
    assert report.verdict == verdict and dict(report.params)["delta"] == delta


# --- monotonic impossibility ---------------------------------------------------

def test_budget_mechanism_sacrifices_accuracy():
    mech = alg1(4.0, LN2, 2)
    delta = 1.0 / 6.0
    report = audit_monotonic_impossibility(mech, monotonic_model(delta), delta=delta)
    assert report.verdict == ACCURACY_SACRIFICED
    # adaptive quantities: P_i = B/n = 2, L_i = 3 > theta
    assert report.chain.payments == (2.0, 2.0)
    assert report.chain.thresholds == (3.0, 3.0)
    # every full-hybrid step leaves the law untouched up to truncation slack
    for d in report.chain.step_distances:
        assert d.lo == 0.0 and d.hi <= 2e-12
    assert report.chain.end_to_end.hi <= 2e-12
    # the all-ones endpoint at valuation L has counted sum 0: accuracy breaks there
    assert report.accuracy[1].verdict == "fail"
    assert len(chain_inputs(report.chain)) == 3 and len(chain_probes(report.chain)) == 2
    final = chain_inputs(report.chain)[-1]
    assert final.bits == (1, 1) and final.valuations == (3.0, 3.0)


def test_constant_mechanism_monotonic_consistent():
    n = 2
    report = audit_monotonic_impossibility(ConstantMechanism(n), monotonic_model(1.0 / (3 * n)))
    assert report.verdict == ACCURACY_SACRIFICED
    assert report.accuracy[1].verdict == "fail"


def test_subsample_flagged_with_bounded_distance_note():
    n, k = 6, 2
    mech = subsample(5.0, k, n, distinguishability_budget=3.0)
    delta = 1.0 / (3 * n)
    report = audit_monotonic_impossibility(mech, monotonic_model(delta), delta=delta)
    # the increasing model forces unbounded losses, so the audit flags IR ...
    assert report.verdict == IR_VIOLATED
    # ... but the report notes that per-player movement stays below C/n,
    # which is the escape hatch for bounded loss models
    assert any("C/n" in line for line in report.details)

    # oracle: the first step's law movement by subset enumeration
    def law(bits):
        freq = {}
        subsets = list(itertools.combinations(range(n), k))
        for sub in subsets:
            m = sum(bits[j] for j in sub)
            c = round(Fraction(n * m, k))
            freq[c] = freq.get(c, 0) + Fraction(1, len(subsets))
        return freq

    l0, l1 = law([0] * n), law([1] + [0] * (n - 1))
    keys = set(l0) | set(l1)
    oracle = float(sum(abs(l0.get(c, 0) - l1.get(c, 0)) for c in keys)) / 2.0
    step = report.chain.step_distances[0]
    assert step.lo == pytest.approx(oracle, abs=1e-12)
    assert oracle < 3.0 / n  # below C/n, matching the note


def test_monotonic_audit_validations():
    mech = alg1(4.0, LN2, 2)
    with pytest.raises(ValueError):
        audit_monotonic_impossibility(mech, monotonic_model(0.2), delta=0.2)  # > 1/(3n)
    with pytest.raises(ValueError):
        audit_monotonic_impossibility(mech, general_model(1.0 / 6.0), delta=1.0 / 6.0)


def test_monotonic_audit_flags_infinite_payments():
    report = audit_monotonic_impossibility(InfinitePay(2), monotonic_model(1.0 / 6.0))
    assert report.verdict == "payments_violated"
    assert report.chain is None and report.failing_step == 0


@pytest.mark.parametrize("who", [0, 1])
def test_audits_flag_a_nan_pay_as_a_payment_violation(who):
    # NaN compares false both ways, so no cap can bound it: both audits stop
    # at the payment premise, wherever the NaN sits in the chain
    n = 3
    gen = audit_general_impossibility(NanPay(n, who), general_model(1.0 / (6 * n)))
    assert gen.verdict == "payments_violated" and gen.chain is None
    assert gen.details == ("payment cap over all-indifferent inputs: P = nan",)
    assert gen.failing_step == who and gen.witness == f"payment not finite at step {who}"
    mon = audit_monotonic_impossibility(NanPay(n, who), monotonic_model(1.0 / (3 * n)))
    assert mon.verdict == "payments_violated" and mon.chain is None
    assert mon.failing_step == who


# --- payment/accuracy tradeoff --------------------------------------------------

def criterion_params():
    # n=8, P=B/n=1, tau > theta, eta=1/4, gamma=1/8
    return TradeoffParams(tau=8.0, gamma=0.125, eta=0.25, beta=0.25, max_pay=1.0)


def test_tradeoff_budget_mechanism_fails_final_hybrid():
    mech = alg1(8.0, LN2, 8)
    params = criterion_params()
    assert params.tau > mech.params.theta
    report = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params)
    assert report.verdict == ACCURACY_VIOLATED
    h, g2 = params.counts_for(8)
    assert report.failing_step == h + g2  # the final hybrid
    assert len(chain_inputs(report.chain)) == h + g2 + 1
    # premises hold: every step's law movement is certified below its cap
    for idx, d in enumerate(report.chain.step_distances):
        assert d.hi < params.max_pay / report.chain.thresholds[idx]
    # the final hybrid misses its window by at least 1/2 - (P/tau)*gamma*n,
    # so accuracy fails there for EVERY admissible beta
    final = report.accuracy[-1]
    assert final.verdict == "fail"
    out_lo = params.beta - final.margin
    assert out_lo >= params.beta_cap(8)


def test_tradeoff_exact_sum_premise_violated():
    mech = exact_sum(8)
    params = TradeoffParams(tau=2.0, gamma=0.125, eta=0.25, beta=0.25, max_pay=0.0)
    report = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params)
    assert report.verdict == IR_VIOLATED
    assert report.failing_step == 0
    # point masses at consecutive sums are disjoint: each step moves by 1
    assert report.chain.step_distances[0] == Interval(1.0, 1.0)


def test_tradeoff_params_validation():
    with pytest.raises(ValueError):
        TradeoffParams(tau=1.0, gamma=0.125, eta=0.25, beta=0.5, max_pay=1.0)  # beta >= 1/2
    with pytest.raises(ValueError):
        TradeoffParams(tau=1.0, gamma=0.4, eta=0.4, beta=0.1, max_pay=1.0)  # eta + 2 gamma > 1
    with pytest.raises(ValueError):
        TradeoffParams(tau=0.0, gamma=0.125, eta=0.25, beta=0.1, max_pay=1.0)
    # n-dependent cap: (P/tau) gamma n = 0.5 forces beta < 0
    params = TradeoffParams(tau=2.0, gamma=0.125, eta=0.25, beta=0.25, max_pay=2.0)
    with pytest.raises(ValueError):
        params.counts_for(8)
    # non-integer player counts are rejected
    with pytest.raises(ValueError):
        TradeoffParams(tau=8.0, gamma=0.125, eta=0.3, beta=0.2, max_pay=1.0).counts_for(8)


def test_tradeoff_requires_growing_model():
    mech = alg1(8.0, LN2, 8)
    with pytest.raises(ValueError):
        audit_payment_accuracy_tradeoff(mech, zero_loss(), criterion_params())


def test_audits_refuse_a_model_that_does_not_respect_indifference():
    def careless(model):
        return dataclasses.replace(model, respects_indifference=False)

    mech = alg1(4.0, LN2, 2)
    with pytest.raises(ValueError, match="audit needs a model that respects indifference"):
        audit_general_impossibility(mech, careless(general_model(1.0 / 12.0)))
    with pytest.raises(ValueError, match="audit needs a model that respects indifference"):
        audit_monotonic_impossibility(mech, careless(monotonic_model(1.0 / 6.0)))
    with pytest.raises(ValueError, match="audit needs a model that respects indifference"):
        audit_payment_accuracy_tradeoff(alg1(8.0, LN2, 8), careless(growing_sd_model()), criterion_params())


def test_tradeoff_refuses_a_chain_with_no_steps():
    # eta*n and 2*gamma*n both round to the integer 0
    params = TradeoffParams(tau=8.0, gamma=1e-12, eta=1e-12, beta=0.25, max_pay=0.0)
    assert params.counts_for(2) == (0, 0)
    with pytest.raises(ValueError, match="chain needs at least one step"):
        audit_payment_accuracy_tradeoff(exact_sum(2), growing_sd_model(), params)


def test_tradeoff_deterministic():
    mech = alg1(8.0, LN2, 8)
    a = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), criterion_params())
    b = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), criterion_params())
    assert a.to_json_dict() == b.to_json_dict()


# --- chain record invariants -----------------------------------------------------

def _chain(start, moves, steps=None, end=Interval(0.0, 1.0), probe=None):
    steps = (Interval(0.0, 1.0),) * len(moves) if steps is None else steps
    return HybridChain(start, tuple(moves), (0.0,) * len(moves), (0.0,) * len(moves), steps, end, probe)


def test_chain_rejects_multi_player_jumps():
    # a move names one player by an int index; a pair of players, a bool
    # (True is the int 1) and an index outside the profile are refused
    a = profile([0, 0], [0.0, 0.0])
    one = PlayerType(1, 0.0)
    assert chain_inputs(_chain(a, [(1, one)]))[1] == profile([0, 1], [0.0, 0.0])
    for bad in ((0, 1), True, -1, 2, 1.0):
        with pytest.raises(ValueError, match="not an index"):
            _chain(a, [(bad, one)])


def test_chain_compares_player_values_not_identities():
    a = profile([0, 0, 0], [0.0, 1.0, 2.0])
    # a fresh PlayerType equal to player 1's is no move; a changed one is
    with pytest.raises(ValueError, match="change its player's type"):
        _chain(a, [(1, PlayerType(0, 1.0))])
    with pytest.raises(ValueError, match="change its player's type"):
        _chain(a, [(1, a.players[1])])
    with pytest.raises(ValueError, match="change its player's type"):
        _chain(a, [(1, (1, 1.0))])  # a tuple is not a PlayerType
    chain = _chain(a, [(1, PlayerType(1, 1.0))])
    assert chain_inputs(chain) == (a, profile([0, 1, 0], [0.0, 1.0, 2.0]))
    # the check tracks the current types: moving back is a change, repeating the last move is not
    chain = _chain(a, [(1, PlayerType(1, 1.0)), (1, PlayerType(0, 1.0))])
    assert chain_inputs(chain)[2] == a
    with pytest.raises(ValueError, match="change its player's type"):
        _chain(a, [(1, PlayerType(1, 1.0)), (2, PlayerType(1, 2.0)), (1, PlayerType(1, 1.0))])
    with pytest.raises(ValueError, match="at least one move"):
        _chain(a, [])


def test_chain_expands_probes_from_its_probe_type():
    a = profile([0, 0], [0.0, 0.0])
    moves = [(0, PlayerType(1, 3.0)), (1, PlayerType(1, 5.0))]
    assert chain_probes(_chain(a, moves)) == ()
    chain = _chain(a, moves, probe=PlayerType(1, 0.0))
    assert chain_probes(chain) == (profile([1, 0], [0.0, 0.0]), profile([1, 1], [3.0, 0.0]))
    assert chain_inputs(chain)[-1] == profile([1, 1], [3.0, 5.0])


@pytest.mark.parametrize("n", range(1, 7))
def test_general_threshold_sees_the_probe_bits_in_chain_order(n):
    # T is read once per probe hybrid, at that probe's bits and the other
    # players' valuations, which are all 0 before L is known
    seen = []

    def recording_threshold(ell, bits, v_minus):
        seen.append((ell, bits, v_minus))
        return ell + 1.0

    model = increasing_threshold_model(1.0 / (6 * n), recording_threshold, GEN)
    rep = audit_general_impossibility(exact_sum(n, 0.5), model)
    probes = chain_inputs(rep.chain)[1::2]
    assert [bits for _, bits, _ in seen] == [x.bits for x in probes]
    assert [bits for _, bits, _ in seen] == [(1,) * (i + 1) + (0,) * (n - 1 - i) for i in range(n)]
    assert all(ell == 0.5 and v_minus == (0.0,) * (n - 1) for ell, _, v_minus in seen)
    for i, x in enumerate(probes):
        assert x.valuations[:i] + x.valuations[i + 1 :] == (0.0,) * (n - 1)


@pytest.mark.parametrize("as_int", [False, True], ids=["float", "int"])
@pytest.mark.parametrize("n", range(1, 7))
def test_monotonic_threshold_sees_the_chain_so_far(n, as_int):
    # step i reads T at its probe: players before i hold (1, L_j), player i
    # (1, 0) and the rest (0, 0); v_minus holds the floats the hybrids store,
    # even when T returns an int
    seen = []

    def recording_threshold(ell, bits, v_minus):
        seen.append((ell, bits, v_minus))
        level = ell + 1.0 + len(seen)  # a distinct L per step
        return int(level) if as_int else level

    model = increasing_threshold_model(1.0 / (3 * n), recording_threshold, MON)
    rep = audit_monotonic_impossibility(exact_sum(n, 0.5), model)
    levels = [float(L) for L in rep.chain.thresholds]
    assert levels == [int(1.5 + i + 1) if as_int else 1.5 + i + 1 for i in range(n)]
    assert [bits for _, bits, _ in seen] == [(1,) * (i + 1) + (0,) * (n - 1 - i) for i in range(n)]
    assert [v_minus for _, _, v_minus in seen] == [tuple(levels[:i]) + (0.0,) * (n - 1 - i) for i in range(n)]
    assert all(type(v) is float for _, _, v_minus in seen for v in v_minus)
    assert all(ell == 0.5 for ell, _, _ in seen)
    for (_, bits, v_minus), (i, x) in zip(seen, enumerate(chain_probes(rep.chain))):
        assert bits == x.bits and v_minus == x.valuations[:i] + x.valuations[i + 1 :]


@pytest.mark.parametrize("n", range(1, 7))
def test_general_threshold_that_reads_the_bits_is_maxed_over_the_probes(n):
    # T = l + 1 + sum(bits) peaks at the last probe, whose bits are all ones
    model = increasing_threshold_model(1.0 / (6 * n), lambda ell, bits, v_minus: ell + 1.0 + sum(bits), GEN)
    rep = audit_general_impossibility(exact_sum(n, 0.5), model)
    params = dict(rep.params)
    assert params["L"] == params["P"] + 1.0 + n == 1.5 + n
    assert rep.chain.thresholds == (1.5 + n,) * n
    assert [x.players[i].valuation for i, x in enumerate(chain_inputs(rep.chain)[1::2])] == [1.5 + n] * n


def test_chain_rejects_distance_count_mismatch():
    a = profile([0, 0], [0.0, 0.0])
    moves = [(0, PlayerType(1, 0.0))]
    with pytest.raises(ValueError, match="one step distance per move"):
        _chain(a, moves, steps=(), end=Interval(0.0, 0.0))
    with pytest.raises(ValueError, match="one step distance per move"):
        _chain(a, moves, steps=(Interval(0.0, 0.1),) * 2)


def test_chain_rejects_triangle_violation():
    a = profile([0, 0], [0.0, 0.0])
    with pytest.raises(ValueError, match="exceeds step sum"):
        _chain(a, [(0, PlayerType(1, 0.0))], steps=(Interval(0.0, 0.1),), end=Interval(0.5, 0.6))


def test_emitted_chains_satisfy_invariants():
    # constructor-validated; reaching here means both audits built clean chains
    mech = alg1(4.0, LN2, 2)
    rep = audit_monotonic_impossibility(mech, monotonic_model(1.0 / 6.0))
    total = sum(d.hi for d in rep.chain.step_distances)
    assert rep.chain.end_to_end.lo <= total + 1e-12


# --- report regression pin ---------------------------------------------------

# sha256 of json.dumps(report.to_json_dict(), sort_keys=True). A change to
# how the audits compute (payment caps, neighbor distances, windows) must
# leave every report byte for byte as it was; update a digest only with a
# change that means to alter that report.
REPORT_SHA256 = {
    ("general", "alg1", 6): "8c9ff426ed0a08c64de3ab1f0a13913a9352fcd0ce0c855f2a32767c09f7f47d",
    ("monotonic", "alg1", 6): "7adfffe9946dc3362723549e8d5827df2739631c6319deb032d1ed3494723ce2",
    ("tradeoff", "alg1", 6): "8eea1e0f1b06d782193d96559040993e15651f5513c21c65efa207da6781d2ba",
    ("general", "exact_sum", 6): "779b27af4988723f65c4f26770eee131ebc86bf468f7574d2202e9039365820f",
    ("monotonic", "exact_sum", 6): "1df6a3cff8df6522d83fd61b91e28179055385131d99ecea6b05f81f779a04d4",
    ("tradeoff", "exact_sum", 6): "a9e036477e23d518b5a0eebf5b29c8ccb4cd9ecedccbc57c82fe6422a5ce9a60",
    ("general", "subsample", 6): "489d2cf6a02e484f70758bc226c326a146c8c2cd2aa7edcb3fffcf350a534923",
    ("monotonic", "subsample", 6): "2a650a7754023c25cc8e02191485d0574c63d41265f6f43c2f11e8951a869bbb",
    ("tradeoff", "subsample", 6): "a34d0604b26d7d8d9b5c2969e0069033b066aff93f848849dfc813184320117a",
    ("general", "alg1", 8): "4d08882ca55652ffe6f37fd41ff13db55af0daf836c7964456f458b950e6099e",
    ("monotonic", "alg1", 8): "f1a306f171ea4cf3ab76c1707b9bea7df12ba36e193f8d15bd183fb786131df2",
    ("tradeoff", "alg1", 8): "3035612cd472aa8b5720c10e58da972a9a3a9e6a215cd8061e7f00b24662cacd",
    ("general", "exact_sum", 8): "2d2d5cde231b2ad5c9c6e85278155aa471d1affd21809e08850fb8fef4677310",
    ("monotonic", "exact_sum", 8): "1e36b5889f8bd1ebcc1c4c7a66219bf98e7ba62dc1dae486a33bf84333ecbd8c",
    ("tradeoff", "exact_sum", 8): "8ccbd7eded610e55d9a49adcc213f1d6c94e39b8da9af20d55c3c0eeeda5fe0f",
    ("general", "subsample", 8): "cead37620683382f834e9b272f0cf5a1ce9e4c9734bdfdf92d3616718d87826b",
    ("monotonic", "subsample", 8): "fa42fca416122a9dae9d430065cc2c0330daed94a4eadbf42e93853341d9632b",
    ("tradeoff", "subsample", 8): "ead17e028589173ea64ee69b3128b8f234a47669947a7a42affe8ea772fc5f84",
    # one report for each rung of each audit's verdict ladder
    ("general", "infinite_pay", 4): "323acdb6c90e7fc0ea9fd27f760c85fca869b5f63a1e77a9abe6fd0a571c4b5b",
    ("general", "pay_declared", 4): "3b0d7c0fb7b7a400e64cfa001b539220a4440383073fe84e60460f9fb21d447f",
    ("general", "blurred_constant", 4): "3508a00af4d02554685094846f8f36f4d7d978162877b9be0da63052ae3818d3",
    ("general", "blurred_alone", 4): "a951403424da5af38a00ae78c4048d7257a705e3b9a5700d72e68a9f1e0c4eaf",
    ("general", "constant", 4): "02341ab8a6e93b5df4f17708928170b37a18ea2594264e464858b9d6c2ceaf39",
    ("general", "alone", 4): "227414c280a24a4cfa416fe24af73f9bde12c8117890efc9f8e547dbdd0f02cc",
    ("monotonic", "infinite_pay", 4): "a52ca4137a61ad1047ca8cd2531732e683fd8e79da917bda7b7970e7f51d8703",
    ("monotonic", "pay_declared", 4): "804898c3cce2cc878b903e1c5f10c8e6f269d3b312529f5d8e2aa5b4e60fcb4e",
    ("monotonic", "alg1_coarse", 4): "f06431f7c295a893912d6bf34fdbc6fb426ff66a083232778f48d98a12f4bf0f",
    ("monotonic", "blurred_alone", 4): "7f9aab63edb00208a82ac4cb42dafb24f606d0e188ce1e7a089833d7819809d3",
    ("monotonic", "alone", 4): "53a46d5c8833a57230c6c8ef3613d2066e00d8286d57e990abbf7f3de6281276",
    ("tradeoff", "underpaid_cap", 4): "fd1018f1a5414c59d6bf0595222a5278ba71d25cbf1fbaa57d0afb3bd882ba8a",
    ("tradeoff", "pay_declared", 4): "d53e4c76c2148e284beb9595f816aa3e2749c0156d8c029604c452fa42b10a34",
    ("tradeoff", "alg1_coarse", 4): "37dd0c33503dc7f9ed9653412eaa3a7dabfbca6e658e047ce764f1e87827cda8",
    ("tradeoff", "two_faced_blurred", 4): "3cd0565e687334a4356dc90c8c077e36b022810190bc23824f2ced62adf2c46a",
    ("tradeoff", "two_faced", 4): "d0655b572b66c1041cb490564d296bd9927b5be6ce602698fdaef1faa3087c9f",
}

# the verdict each rung pin reaches, and the rung it stands for
RUNG_VERDICTS = {
    ("general", "infinite_pay"): "payments_violated",
    ("general", "pay_declared"): "truthfulness_violated",
    ("general", "exact_sum"): "ir_violated",
    ("general", "blurred_constant"): "inconclusive",  # distinguishability straddles delta
    ("general", "blurred_alone"): "inconclusive",  # endpoint accuracy straddles beta
    ("general", "constant"): "impossibility_respected",
    ("general", "alone"): "theorem_contradicted",
    ("monotonic", "infinite_pay"): "payments_violated",
    ("monotonic", "pay_declared"): "truthfulness_violated",
    ("monotonic", "subsample"): "ir_violated",
    ("monotonic", "alg1_coarse"): "inconclusive",  # distinguishability straddles delta
    ("monotonic", "blurred_alone"): "inconclusive",  # endpoint accuracy straddles beta
    ("monotonic", "alg1"): "accuracy_sacrificed",
    ("monotonic", "alone"): "theorem_contradicted",
    ("tradeoff", "underpaid_cap"): "payments_violated",
    ("tradeoff", "pay_declared"): "truthfulness_violated",
    ("tradeoff", "exact_sum"): "ir_violated",
    ("tradeoff", "alg1_coarse"): "inconclusive",  # a step distance straddles its cap
    ("tradeoff", "two_faced_blurred"): "inconclusive",  # hybrid accuracy straddles beta
    ("tradeoff", "alg1"): "accuracy_violated",
    ("tradeoff", "two_faced"): "theorem_contradicted",
}


def _pinned_report(audit, name, n):
    mass_tol = 0.3 if name == "alg1_coarse" else 1e-12
    mech = {
        "alg1": lambda: alg1(n / 2.0, LN2, n),
        "alg1_coarse": lambda: alg1(n / 2.0, LN2, n),
        "exact_sum": lambda: exact_sum(n),
        # a finite distinguishability budget C puts the max-seen note in
        "subsample": lambda: subsample(1.0, n // 2, n, float(n)),
        "pay_declared": lambda: pay_declared(LN2, n),
        "constant": lambda: ConstantMechanism(n),
        "infinite_pay": lambda: InfinitePay(n),
        "blurred_constant": lambda: PointMass(n, 0.5, constant=True, alone=False),
        "blurred_alone": lambda: PointMass(n, 0.5),
        "alone": lambda: PointMass(n),
        "underpaid_cap": lambda: exact_sum(n, 1.0),
        "two_faced_blurred": lambda: TwoFacedLaw(n, 0.5),
        "two_faced": lambda: TwoFacedLaw(n),
    }[name]()
    if audit == "general":
        return audit_general_impossibility(mech, general_model(1.0 / (6 * n)), mass_tol=mass_tol)
    if audit == "monotonic":
        return audit_monotonic_impossibility(mech, monotonic_model(1.0 / (3 * n)), mass_tol=mass_tol)
    # below exact_sum(n, 1.0)'s flat pay; above the two-faced laws' zero pay,
    # so that a still step stays under its cap
    max_pay = {"underpaid_cap": 0.5, "two_faced_blurred": 1.0, "two_faced": 1.0}.get(name)
    max_pay = max_zero_valuation_pay(mech) if max_pay is None else max_pay
    params = TradeoffParams(tau=8.0, gamma=1.0 / n, eta=2.0 / n, beta=0.25, max_pay=max_pay)
    return audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params, mass_tol)


@pytest.mark.parametrize("audit,name,n", list(REPORT_SHA256))
def test_report_bytes_pinned(audit, name, n):
    report = _pinned_report(audit, name, n)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_SHA256[audit, name, n]
    assert report.verdict == RUNG_VERDICTS.get((audit, name), report.verdict)


def _differing_players(a, b):
    """The players whose types differ between two profiles."""
    return [i for i, (p, q) in enumerate(zip(a.players, b.players)) if p != q]


@pytest.mark.parametrize("audit,name,n", [key for key in REPORT_SHA256 if key[1] != "infinite_pay"])
def test_pinned_chains_move_one_player_per_step(audit, name, n):
    # the expanded chain against the rule a profile-per-hybrid chain was
    # validated by: each next hybrid, and each probe, differs from its hybrid
    # in exactly the moved player
    chain = _pinned_report(audit, name, n).chain
    inputs, probes = chain_inputs(chain), chain_probes(chain)
    assert len(inputs) == len(chain.moves) + 1 and inputs[0] == chain.start
    assert len(probes) == (0 if audit == "general" else len(chain.moves))
    for k, (i, t) in enumerate(chain.moves):
        assert inputs[k].n == inputs[k + 1].n == n
        assert _differing_players(inputs[k], inputs[k + 1]) == [i] and inputs[k + 1].players[i] == t
        if probes:
            assert _differing_players(inputs[k], probes[k]) == [i] and probes[k].players[i] == chain.probe


def _expand_report_chain(d):
    """The hybrids and probes a report's chain stands for, rebuilt from its
    JSON alone as the JSON of whole profiles: each move applied to the
    start, each probe its step's hybrid with the moved player at the probe."""
    bits, valuations = list(d["start"]["bits"]), list(d["start"]["valuations"])
    inputs, probes = [{"bits": bits[:], "valuations": valuations[:]}], []
    for i, bit, valuation in d["moves"]:
        if d["probe"] is not None:
            probes.append({"bits": bits[:], "valuations": valuations[:]})
            probes[-1]["bits"][i], probes[-1]["valuations"][i] = d["probe"]
        bits[i], valuations[i] = bit, valuation
        inputs.append({"bits": bits[:], "valuations": valuations[:]})
    return inputs, probes


@pytest.mark.parametrize("audit,name,n", list(REPORT_SHA256))
def test_pinned_report_chains_expand_to_the_library_chain(audit, name, n):
    # a report writes its chain as stored; its start, moves and probe must
    # expand, byte for byte, to the whole hybrids and probes of the library
    report = _pinned_report(audit, name, n)
    d = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))["chain"]
    if report.chain is None:
        assert d is None
        return
    assert set(d) == {"start", "moves", "probe", "payments", "thresholds", "step_distances", "end_to_end"}
    inputs, probes = chain_inputs(report.chain), chain_probes(report.chain)
    want = ([x.to_json_dict() for x in inputs], [x.to_json_dict() for x in probes])
    assert json.dumps(_expand_report_chain(d)) == json.dumps(want)


def test_rung_pins_cover_every_verdict():
    ladder = {
        "general": {"payments_violated", "truthfulness_violated", "ir_violated", "inconclusive",
                    "impossibility_respected", "theorem_contradicted"},
        "monotonic": {"payments_violated", "truthfulness_violated", "ir_violated", "inconclusive",
                      "accuracy_sacrificed", "theorem_contradicted"},
        "tradeoff": {"payments_violated", "truthfulness_violated", "ir_violated", "inconclusive",
                     "accuracy_violated", "theorem_contradicted"},
    }
    for audit, verdicts in ladder.items():
        assert {v for (a, _), v in RUNG_VERDICTS.items() if a == audit} == verdicts
    assert {(a, m) for a, m, _ in REPORT_SHA256} >= set(RUNG_VERDICTS)


def test_monotonic_audit_settles_neighbours_from_law_keys(monkeypatch):
    # every neighbour law is keyed by its shift and every distance read from
    # the mechanism's table, so the profile-building default retype never
    # runs and only one window distance is summed per shift difference
    from privbuy import audits, core, distributions, losses, mechanisms, verifiers

    calls = {"retype": 0, "statistical_distance": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    default_keys = counted("retype", core.Mechanism.retype)
    monkeypatch.setattr(core.Mechanism, "retype", default_keys)
    kernel = counted("statistical_distance", distributions.statistical_distance)
    for mod in (audits, core, distributions, losses, mechanisms, verifiers):
        if hasattr(mod, "statistical_distance"):
            monkeypatch.setattr(mod, "statistical_distance", kernel)
    n = 256
    report = audit_monotonic_impossibility(alg1(512.0, 0.05, n), increasing_threshold_model(1.0 / (3 * n), relation=MON))
    assert report.verdict == IR_VIOLATED and report.failing_step == 0
    assert calls["retype"] == 0
    assert 1 <= calls["statistical_distance"] <= 4, calls


def _count_calls(monkeypatch, calls, owner, attr, name):
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


_COUNTED_256 = {
    "alg1_ln2": lambda n: alg1(2.0 * n, LN2, n),
    "alg1_0.05": lambda n: alg1(2.0 * n, 0.05, n),
    "exact_sum": exact_sum,
    "subsample": lambda n: subsample(1.0, n // 2, n),
}


def _count_counts(monkeypatch):
    from privbuy.mechanisms import BudgetMechanism, CountedMechanism

    calls = {"_counted": 0}
    for cls in (CountedMechanism, BudgetMechanism):
        _count_calls(monkeypatch, calls, cls, "_counted", "_counted")
    return calls


# each hybrid is reached by ``move``, which carries its count across the
# move, so an audit counts players only at its start and at the accuracy
# checks of endpoints that are not the last hybrid reached

@pytest.mark.parametrize("name", list(_COUNTED_256))
def test_monotonic_audit_counts_each_hybrid_once(monkeypatch, name):
    calls, n = _count_counts(monkeypatch), 256
    audit_monotonic_impossibility(_COUNTED_256[name](n), monotonic_model(1.0 / (3 * n)))
    assert calls["_counted"] <= 4, calls


@pytest.mark.parametrize("name", list(_COUNTED_256))
def test_general_audit_counts_each_hybrid_once(monkeypatch, name):
    calls, n = _count_counts(monkeypatch), 256
    audit_general_impossibility(_COUNTED_256[name](n), general_model(1.0 / (6 * n)))
    assert calls["_counted"] <= 4, calls


@pytest.mark.parametrize("eps", [LN2, 0.05])
def test_tradeoff_audit_counts_each_hybrid_once(monkeypatch, eps):
    calls, n = _count_counts(monkeypatch), 256
    params = TradeoffParams(tau=8.0, gamma=1.0 / n, eta=0.25, beta=0.25, max_pay=0.5)
    report = audit_payment_accuracy_tradeoff(alg1(n / 2.0, eps, n), growing_sd_model(), params)
    assert len(report.chain.moves) == 66
    assert calls["_counted"] <= 4, calls


@pytest.mark.parametrize("name", ["exact_sum", "subsample"])
def test_tradeoff_audit_counts_a_flat_pay_chain_once(monkeypatch, name):
    calls, n = _count_counts(monkeypatch), 256
    params = TradeoffParams(tau=8.0, gamma=1.0 / n, eta=0.25, beta=0.25, max_pay=1.0)
    audit_payment_accuracy_tradeoff(_COUNTED_256[name](n), growing_sd_model(), params)
    assert calls["_counted"] <= 4, calls


@pytest.mark.parametrize("audit", ["general", "monotonic"])
def test_audit_settles_each_steps_neighbours_once(monkeypatch, audit):
    # the IR step and the model's loss look at the same hybrid; the second
    # look reads neighbor_distances' slot
    from privbuy.core import Mechanism

    calls = {"candidate_types": 0}
    _count_calls(monkeypatch, calls, Mechanism, "candidate_types", "candidate_types")
    n = 256
    if audit == "general":
        report = audit_general_impossibility(exact_sum(n), general_model(1.0 / (6 * n)))
    else:
        report = audit_monotonic_impossibility(exact_sum(n), monotonic_model(1.0 / (3 * n)))
    assert report.verdict == IR_VIOLATED
    assert calls["candidate_types"] == n, calls


def test_monotonic_audit_sums_each_step_distance_once(monkeypatch):
    # subsample's distance table settles the neighbour pass, the loss's
    # second pass and the chain steps from one sum per step, plus the end
    from privbuy import audits, core, distributions, losses, mechanisms, verifiers

    calls = {"statistical_distance": 0}
    for mod in (audits, core, distributions, losses, mechanisms, verifiers):
        if hasattr(mod, "statistical_distance"):
            _count_calls(monkeypatch, calls, mod, "statistical_distance", "statistical_distance")
    n = 256
    report = audit_monotonic_impossibility(subsample(1.0, n // 2, n), monotonic_model(1.0 / (3 * n)))
    assert report.verdict == IR_VIOLATED
    assert calls["statistical_distance"] <= n + 1, calls
