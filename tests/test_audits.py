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
from privbuy.core import NeighborRelation
from privbuy.distributions import CountDistribution, Interval
from privbuy.losses import growing_sd_model, increasing_threshold_model, zero_loss
from privbuy.mechanisms import alg1, exact_sum, max_zero_valuation_pay, pay_declared, subsample

from conftest import ConstantMechanism, profile

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC
LN2 = math.log(2.0)


# --- test-only mechanisms for the rungs no bundled mechanism reaches ----------

class InfinitePay(ConstantMechanism):
    def pay_vector(self, x):
        self.require_profile(x)
        return (math.inf,) * self.player_count


class PointMass(ConstantMechanism):
    """Publishes the bit sum (or 0 with ``constant``) but stores only
    1 - slack of its mass there; with ``alone``, no player has a candidate
    neighbour, so nothing is ever distinguishable."""

    def __init__(self, n, slack=0.0, constant=False, alone=True):
        super().__init__(n)
        self.slack, self.constant, self.alone = slack, constant, alone

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        at = 0 if self.constant else x.bit_sum()
        return CountDistribution((at,), (1.0 - self.slack,), self.slack)

    def candidate_types(self, x, i):
        return () if self.alone else super().candidate_types(x, i)


class TwoFacedLaw(PointMass):
    """A law that changes between passes: the first ``still_calls`` laws are
    the point mass at 0, every later one is PointMass's. A fixed law cannot
    pass the tradeoff audit's step caps and then hold or straddle accuracy at
    every hybrid (the theorem forbids it); this one shows the distance pass a
    still law and the accuracy pass one that tracks the bit sum."""

    def __init__(self, n, still_calls, slack=0.0):
        super().__init__(n, slack)
        self.still_calls = still_calls

    def output_dist(self, x, mass_tol=1e-12):
        self.still_calls -= 1
        if self.still_calls >= 0:
            return CountDistribution((0,), (1.0,), 0.0)
        return super().output_dist(x, mass_tol)


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
        assert len(report.chain.inputs) == 2 * n + 1
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


def test_general_audit_deterministic():
    mech = alg1(4.0, LN2, 2)
    a = audit_general_impossibility(mech, general_model(1.0 / 12.0), delta=1.0 / 12.0)
    b = audit_general_impossibility(mech, general_model(1.0 / 12.0), delta=1.0 / 12.0)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


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
    assert len(report.chain.inputs) == 3 and len(report.chain.probes) == 2
    final = report.chain.inputs[-1]
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
    assert len(report.chain.inputs) == h + g2 + 1
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


def test_tradeoff_deterministic():
    mech = alg1(8.0, LN2, 8)
    a = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), criterion_params())
    b = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), criterion_params())
    assert a.to_json_dict() == b.to_json_dict()


# --- chain record invariants -----------------------------------------------------

def test_chain_rejects_multi_player_jumps():
    a = profile([0, 0], [0.0, 0.0])
    b = profile([1, 1], [0.0, 0.0])
    with pytest.raises(ValueError):
        HybridChain((a, b), (0.0,), (0.0,), (Interval(0.0, 1.0),), Interval(0.0, 1.0))


def test_chain_compares_player_values_not_identities():
    a = profile([0, 0, 0], [0.0, 1.0, 2.0])
    # every PlayerType of b is a fresh object; only player 1's value changes
    b = profile([0, 1, 0], [0.0, 1.0, 2.0])
    assert all(pa is not pb for pa, pb in zip(a.players, b.players))
    step, end = (Interval(0.0, 1.0),), Interval(0.0, 1.0)
    HybridChain((a, b), (0.0,), (0.0,), step, end)
    same = profile([0, 0, 0], [0.0, 1.0, 2.0])  # equal to a, no object shared
    with pytest.raises(ValueError):
        HybridChain((a, same), (0.0,), (0.0,), step, end)
    with pytest.raises(ValueError):
        HybridChain((a, a), (0.0,), (0.0,), step, end)
    two = profile([0, 1, 0], [0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        HybridChain((a, two), (0.0,), (0.0,), step, end)
    # a shared object next to a changed one still counts one change
    shared = a.with_player(2, two.players[2])
    HybridChain((a, shared), (0.0,), (0.0,), step, end)


@pytest.mark.parametrize("n", range(1, 7))
def test_general_threshold_scan_sees_mask_order(n):
    seen = []

    def recording_threshold(ell, bits, v_minus):
        seen.append((ell, bits, v_minus))
        return ell + 1.0

    model = increasing_threshold_model(1.0 / (6 * n), recording_threshold, GEN)
    audit_general_impossibility(exact_sum(n, 0.5), model)
    masks = [tuple((mask >> j) & 1 for j in range(n)) for mask in range(2**n)]
    assert [bits for _, bits, _ in seen] == masks
    assert all(ell == 0.5 and v_minus == (0.0,) * (n - 1) for ell, _, v_minus in seen)


def test_chain_rejects_distance_count_mismatch():
    a = profile([0, 0], [0.0, 0.0])
    b = profile([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError):
        HybridChain((a, b), (0.0,), (0.0,), (), Interval(0.0, 0.0))


def test_chain_rejects_triangle_violation():
    a = profile([0, 0], [0.0, 0.0])
    b = profile([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError):
        HybridChain((a, b), (0.0,), (0.0,), (Interval(0.0, 0.1),), Interval(0.5, 0.6))


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
    ("general", "alg1", 6): "d647822e3d3f4c17f8d69c81dfb6a1265f2398da8897ac4e94583384daaa601b",
    ("monotonic", "alg1", 6): "a7d3e95c1c9c231bbf044611260fc2737c09146b60b362428c310964f77ada96",
    ("tradeoff", "alg1", 6): "782a39e6a6bda8901ecbc4296d56444c14a5439bf26887e849acc6b7b52f3311",
    ("general", "exact_sum", 6): "e9b524fd798f1d84538b4753cae25eeca584261a993eb3f1e293c8db045ab77c",
    ("monotonic", "exact_sum", 6): "b2f19886e498c1dfb7e88daf572b3c8f012cafa6e0ef1207c565f0942c679e52",
    ("tradeoff", "exact_sum", 6): "a1f313398fa01d3a86b22255cf1a8f72443c0927b0da38badd4d9f822f37a993",
    ("general", "subsample", 6): "c47fdc4f8f286dcd77f8c8dc76defdfdb81e9c8ecbec7531472b241b0fa197db",
    ("monotonic", "subsample", 6): "e0075a5956014ed41fc469e868dd2107e258e1edcab23481ca4a66185fe5fdcc",
    ("tradeoff", "subsample", 6): "97134038959b692157ca61f485282d3e3fad825b78700e38cde890e3dcde6d77",
    ("general", "alg1", 8): "11f280895804d4d0d5e82e07fe989365adb1c040aec4fd282a7675c9162d9e4c",
    ("monotonic", "alg1", 8): "8c8494227b8ac8dc916ff108f973e7c1020938f6d89f1e139be7231f415f42a5",
    ("tradeoff", "alg1", 8): "f581c69ddf9fc11f4483178b518cfef5fc05ad70265c4d3a46af9256888b75bd",
    ("general", "exact_sum", 8): "9b0e873122fee7ed6dc7398999b45b9c1b34a096d84adb42f9101491a97c188c",
    ("monotonic", "exact_sum", 8): "40c03098ed7f4b7e6b734dd3f943edc95220e6c4c16e43073b25898533893521",
    ("tradeoff", "exact_sum", 8): "064e89dee88f5320b81bb07fe3fc7cf385acc35f7a390c35a7330024b7077878",
    ("general", "subsample", 8): "2b5b1740c598f1e2daad05534890e1d47b57da253004d73d91c903e56ad4c392",
    ("monotonic", "subsample", 8): "ec6e32de0a2790c89a7e2a6ba4d7dc72201246a82d332348520fb48265120852",
    ("tradeoff", "subsample", 8): "f13046c9f6a704ccce206b74c86deee04c7af56e863ff7d146d6b5abe2eb2e31",
    # one report for each rung of each audit's verdict ladder
    ("general", "infinite_pay", 4): "0e43ee44484a8cfc4fec80a8814d1afb3d9cfed899b927ceb2d691fdb0182fb1",
    ("general", "pay_declared", 4): "3a99133244ff68fdd5e2666b9301611b067514d262dbefdd9b2c22fbee74bc9c",
    ("general", "blurred_constant", 4): "cb6431e1b5e128f3c65bd0dba4d7eea97f73f2ad8c72be089ba69b4ab53214ff",
    ("general", "blurred_alone", 4): "a44e689da2e666f12cc5bc52601bf6210f583b311328ff6b4c92e0bce9789060",
    ("general", "constant", 4): "1a88101de37d3c03763ee38ffd9f574db9300bb7d121625c2579d4e3dfddbc79",
    ("general", "alone", 4): "b49c2d2ae836217352e2e3d499a4dfa8c93055ddfdeab0a6121399daec0500cd",
    ("monotonic", "infinite_pay", 4): "a52ca4137a61ad1047ca8cd2531732e683fd8e79da917bda7b7970e7f51d8703",
    ("monotonic", "pay_declared", 4): "9a3a6d30a28e2898ca3246d7810b34a7dc6dc65844357428b657a2175a19f244",
    ("monotonic", "alg1_coarse", 4): "ff011b6bed4eb456d2a41690b1e0a7ba8ee83ef8241fb26d5bc72ee0d211661e",
    ("monotonic", "blurred_alone", 4): "7f5b0cca53c51caa90b0178b75cf6ff3b3d9b9e6a48bf79cb48730bdb21149e2",
    ("monotonic", "alone", 4): "0de93867a541469dbc6cd9547741cd43f9fcee30794540d481f3d5f02a517db2",
    ("tradeoff", "underpaid_cap", 4): "ea99252cfb4a78f49f9f51cffa12e58caeb346111e152fc5d0e4a19b54914cb1",
    ("tradeoff", "pay_declared", 4): "8bd00454aed8aec8115b4da39179c3d2e569a26c9157547d0e9b280fb740b72d",
    ("tradeoff", "alg1_coarse", 4): "18ab6858a5a54261635fcb1750063fff46c5acdb53247b7bdd9d712dfb7d33d3",
    ("tradeoff", "two_faced_blurred", 4): "32386f40789864af34e5f7fd1feb8321271c11e5eebd8a2c3f3f14dc08fb41b0",
    ("tradeoff", "two_faced", 4): "b504533b9f37e9a5233b203534ea0daab3384e3956f92739d457dea13e4ed66e",
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
        # eta*n + 2*gamma*n = 4 steps: the distance pass reads 5 laws first
        "two_faced_blurred": lambda: TwoFacedLaw(n, 5, 0.5),
        "two_faced": lambda: TwoFacedLaw(n, 5),
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
    # the mechanism's table, so the profile-building default
    # neighbor_law_keys never runs and only one window distance is summed
    # per shift difference
    from privbuy import audits, core, distributions, losses, mechanisms, verifiers

    calls = {"neighbor_law_keys": 0, "statistical_distance": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    default_keys = counted("neighbor_law_keys", core.Mechanism.neighbor_law_keys)
    monkeypatch.setattr(core.Mechanism, "neighbor_law_keys", default_keys)
    kernel = counted("statistical_distance", distributions.statistical_distance)
    for mod in (audits, core, distributions, losses, mechanisms, verifiers):
        if hasattr(mod, "statistical_distance"):
            monkeypatch.setattr(mod, "statistical_distance", kernel)
    n = 256
    report = audit_monotonic_impossibility(alg1(512.0, 0.05, n), increasing_threshold_model(1.0 / (3 * n), relation=MON))
    assert report.verdict == IR_VIOLATED and report.failing_step == 0
    assert calls["neighbor_law_keys"] == 0
    assert 1 <= calls["statistical_distance"] <= 4, calls
