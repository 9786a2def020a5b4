"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Everything here is exact small-instance verification: expected
values come from independent oracles (closed pmf formulas summed by brute
force, subset enumeration) or are pinned by the structural claims under
test. Tolerances are stated inline and never loosened.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from privbuy.audits import (
    ACCURACY_SACRIFICED,
    ACCURACY_VIOLATED,
    IR_VIOLATED,
    TradeoffParams,
    audit_general_impossibility,
    audit_monotonic_impossibility,
    audit_payment_accuracy_tradeoff,
)
from privbuy.cli import main
from privbuy.core import InputProfile, NeighborRelation
from privbuy.distributions import (
    GeomParams,
    Interval,
    dp_level,
    geom_log_pmf,
    geom_pmf,
    geom_tail,
    shifted_geom_dist,
    statistical_distance,
)
from privbuy.losses import (
    growing_sd_model,
    increasing_threshold_model,
    loss_expectation,
    tight_dp_loss,
)
from privbuy.mechanisms import alg1, alg1_prime, exact_sum, pay_declared, subsample
from privbuy.verifiers import AccuracySpec, check_accuracy, check_ir, check_truthful

from conftest import chain_inputs

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC
LN2 = math.log(2.0)
EPS_GRID = (0.5, LN2)


def _report(num: int, name: str, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS ({time.perf_counter() - start:.1f}s)")


def grid_cases():
    for n in (2, 3, 4):
        for eps in EPS_GRID:
            for budget in (2.0 * n, 4.0 * n):
                yield n, eps, budget


def grid_profiles(mech, n):
    theta = mech.params.theta
    vals_grid = (0.0, theta / 2.0, theta, 2.0 * theta, 10.0 * theta)
    for bits in itertools.product((0, 1), repeat=n):
        for vals in itertools.product(vals_grid, repeat=n):
            yield InputProfile.from_arrays(bits, vals)


def test_criterion_1_thm_mon_reproduction():
    def body():
        start = time.perf_counter()
        for n, eps, budget in grid_cases():
            mech = alg1(budget, eps, n)
            model = tight_dp_loss(mech, MON)
            g = GeomParams(eps)
            for x in grid_profiles(mech, n):
                # (b) individual rationality for every player
                for r in check_ir(mech, model, x):
                    assert r.verdict == "pass", (n, eps, budget, str(x), r)
                # (a) truthfulness for every qualifying player, canonical deviations
                for i in range(n):
                    if mech.params.qualifies(x.players[i].valuation):
                        r = check_truthful(mech, model, x, i)
                        assert r.verdict == "pass", (n, eps, budget, str(x), r)
                # (c) the geometric-tail accuracy target, exactly
                eta_n = sum(
                    1 for p in x.players if p.bit == 1 and not mech.params.qualifies(p.valuation)
                )
                for gn in (2, 4):
                    gamma = gn / n
                    beta = 2.0 * math.exp(-eps * gn)
                    r = check_accuracy(mech, x, AccuracySpec(eta_n / n + gamma, gamma, beta))
                    assert r.verdict == "pass", (n, eps, budget, str(x), r)
                    # cross-check the outside probability via geom_tail
                    expected_out = 0.5 * (geom_tail(g, gn) + geom_tail(g, eta_n + gn))
                    assert abs((beta - r.margin) - expected_out) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"

    _report(1, "thm_mon reproduction (exhaustive grid)", body)


def test_criterion_2_thm_moretruth():
    def body():
        start = time.perf_counter()
        for n, eps, budget in grid_cases():
            mech = alg1_prime(budget, eps, n)
            model = tight_dp_loss(mech, MON)
            for x in grid_profiles(mech, n):
                for i in range(n):
                    bit0 = x.players[i].bit == 0
                    if bit0 or mech.params.qualifies(x.players[i].valuation):
                        r = check_truthful(mech, model, x, i)
                        assert r.verdict == "pass", (n, eps, budget, str(x), i, r)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"

    _report(2, "thm_moretruth: bit-0 players truthful at every valuation", body)


def test_criterion_3_fact_bound():
    def body():
        for n, eps, budget in grid_cases():
            mech = alg1(budget, eps, n)
            model = tight_dp_loss(mech, MON)
            for x in grid_profiles(mech, n):
                for i, p in enumerate(x.players):
                    loss = loss_expectation(model, mech, x, i, p.valuation)
                    cap = p.valuation * eps + 1e-9
                    assert abs(loss.lo) <= cap and abs(loss.hi) <= cap, (str(x), i, loss)
                    if p.bit == 1 and not mech.params.qualifies(p.valuation):
                        assert loss == Interval(0.0, 0.0), (str(x), i, loss)

    _report(3, "fact bound |loss| <= v*eps, zero beyond threshold", body)


def test_criterion_4_distribution_oracles():
    def body():
        radius = 200
        for eps in (0.1, 0.5, LN2, 2.0):
            g = GeomParams(eps)
            z = sum(math.exp(-eps * abs(j)) for j in range(-radius, radius + 1))
            # pmf against the normalized truncated sum
            for k in range(-10, 11):
                assert abs(geom_pmf(g, k) - math.exp(-eps * abs(k)) / z) <= 1e-10
            # tails; the radius-200 oracle itself drifts past 1e-10 for
            # t >= 2 at eps = 0.1, so compare there only where it is valid
            ts = (1,) if eps == 0.1 else (1, 2, 4, 7)
            for t in ts:
                oracle_tail = (
                    sum(math.exp(-eps * abs(k)) for k in range(-radius, radius + 1) if abs(k) >= t) / z
                )
                assert abs(geom_tail(g, t) - oracle_tail) <= 1e-10
            # unit-shift distance against the closed-pmf brute sum
            a = math.exp(-eps)
            norm = (1.0 - a) / (1.0 + a)
            oracle_dist = 0.5 * sum(
                abs(norm * a ** abs(k) - norm * a ** abs(k - 1)) for k in range(-radius, radius + 1)
            )
            got = statistical_distance(shifted_geom_dist(g, 0), shifted_geom_dist(g, 1))
            assert abs(got.lo - oracle_dist) <= 1e-10
            # dp level of m-shifted laws, on the union of their windows
            for m in (1, 2, 3):
                support = sorted(set(shifted_geom_dist(g, 0).support).union(shifted_geom_dist(g, m).support))
                level = dp_level(geom_log_pmf(g, 0, support), geom_log_pmf(g, m, support))
                assert abs(level - eps * m) <= 1e-9

    _report(4, "distribution oracles (radius-200 brute force)", body)


def test_criterion_5_subsample_chernoff():
    def body():
        laws: dict[tuple[int, int, int], dict[int, Fraction]] = {}

        def enumerated_law(n, k, s):
            key = (n, k, s)
            if key not in laws:
                bits = [1] * s + [0] * (n - s)
                freq: dict[int, int] = {}
                total = 0
                for sub in itertools.combinations(range(n), k):
                    m = sum(bits[j] for j in sub)
                    c = round(Fraction(n * m, k))
                    freq[c] = freq.get(c, 0) + 1
                    total += 1
                laws[key] = {c: Fraction(cnt, total) for c, cnt in freq.items()}
            return laws[key]

        for n in range(2, 13):
            for k in range(2, n + 1):
                mech = subsample(0.0, k, n)
                for mask in range(2**n):
                    bits = [(mask >> j) & 1 for j in range(n)]
                    s = sum(bits)
                    x = InputProfile.from_arrays(bits, [0.0] * n)
                    oracle = enumerated_law(n, k, s)
                    law = mech.output_dist(x)
                    assert set(law.support) == set(oracle)
                    for c, p in zip(law.support, law.probs):
                        assert abs(p - float(oracle[c])) <= 1e-12
                    for eta in (0.2, 0.4):
                        tail = sum(q for c, q in oracle.items() if abs(c - s) >= eta * n)
                        assert tail <= 2.0 * math.exp(-eta * eta * k), (n, k, bits, eta)

    _report(5, "subsampling deviation rate under 2*exp(-eta^2*k), exact", body)


def test_criterion_6_audit_general_impossibility(tmp_path):
    def body():
        for n in (2, 3):
            delta = 1.0 / (6 * n)
            model = increasing_threshold_model(delta, relation=GEN)
            report = audit_general_impossibility(exact_sum(n), model, delta=delta)
            assert report.verdict == IR_VIOLATED
            assert report.chain.end_to_end.lo == 1.0
            assert report.failing_step is not None

        mech = alg1(4.0, LN2, 2)
        delta = 1.0 / 12.0
        report = audit_general_impossibility(mech, increasing_threshold_model(delta, relation=GEN), delta=delta)
        assert report.verdict == IR_VIOLATED
        step = report.failing_step
        assert step is not None
        witness_hybrid = chain_inputs(report.chain)[2 * step + 1]
        assert witness_hybrid.players[step].bit == 1  # the concrete flagged hybrid
        assert str(witness_hybrid) in report.witness

        # bit-reproducibility through the CLI with a fixed config
        cfg = {
            "mechanism": {"name": "exact_sum", "n": 2},
            "profiles": [],
            "checks": [{"check": "audit_general", "delta": 1.0 / 12.0}],
            "output": {
                "csv": str(tmp_path / "imp.csv"),
                "report": str(tmp_path / "imp.json"),
            },
        }
        cfg_path = tmp_path / "imp_config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(cfg_path)]) == 0
        first = (tmp_path / "imp.json").read_bytes(), (tmp_path / "imp.csv").read_bytes()
        assert main(["run", str(cfg_path)]) == 0
        assert ((tmp_path / "imp.json").read_bytes(), (tmp_path / "imp.csv").read_bytes()) == first

    _report(6, "general impossibility audit flags IR, reproducibly", body)


def test_criterion_7_audit_monotonic_impossibility():
    def body():
        for n, budget in ((2, 4.0), (3, 6.0)):
            mech = alg1(budget, LN2, n)
            delta = 1.0 / (3 * n)
            model = increasing_threshold_model(delta, relation=MON)
            report = audit_monotonic_impossibility(mech, model, delta=delta)
            assert report.verdict == ACCURACY_SACRIFICED
            # the chain completed: no premise was flagged, and every step's
            # law is unchanged up to truncation slack
            for d in report.chain.step_distances:
                assert d.lo == 0.0 and d.hi <= 1e-12, d
            # endpoint (1^n, L^n): all bits one at the adaptive thresholds
            final = chain_inputs(report.chain)[-1]
            assert final.bits == (1,) * n
            assert final.valuations == report.chain.thresholds
            assert report.accuracy[1].profile == "all_ones_at_L"
            assert report.accuracy[1].verdict == "fail"

    _report(7, "monotonic impossibility audit: chain holds, accuracy fails", body)


def test_criterion_8_audit_tradeoff():
    def body():
        n, eps, budget = 8, LN2, 8.0
        mech = alg1(budget, eps, n)
        cap_pay = budget / n
        tau = 8.0
        assert tau > mech.params.theta
        beta_cap = 0.5 - (cap_pay / tau) * 0.125 * n
        for beta in (0.0, 0.05, 0.2, 0.37):
            assert beta < beta_cap
            params = TradeoffParams(tau=tau, gamma=0.125, eta=0.25, beta=beta, max_pay=cap_pay)
            report = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params)
            assert report.verdict == ACCURACY_VIOLATED
            h, g2 = params.counts_for(n)
            assert report.failing_step == h + g2  # the final hybrid
            # exact hybrid laws: every flipped player sits beyond theta, so
            # each hybrid publishes pure geometric noise
            for hyb in chain_inputs(report.chain):
                assert mech.output_dist(hyb) == shifted_geom_dist(GeomParams(eps), 0)
            # the final hybrid's outside probability clears the beta cap, so
            # accuracy fails there for every admissible beta
            final = report.accuracy[-1]
            assert final.verdict == "fail"
            out_hi = beta - final.margin
            assert out_hi - 2e-12 >= beta_cap

    _report(8, "payment/accuracy tradeoff audit at the final hybrid", body)


def test_criterion_9_pay_declared_baseline():
    def body():
        mech = pay_declared(0.5, 2)
        model = tight_dp_loss(mech, GEN)
        x = InputProfile.from_arrays([1, 0], [1.0, 0.0])
        r = check_truthful(mech, model, x, 0)
        assert r.verdict == "fail"
        assert "profitable deviation" in r.witness
        assert r.margin < 0  # the gain the witness deviation realizes
        # the named over-declaration is indeed profitable: payment scales
        # with the declaration while the law (hence the loss) is unchanged
        r_explicit = check_truthful(mech, model, x, 0, deviations=[100.0])
        assert r_explicit.verdict == "fail"
        assert r_explicit.margin == pytest.approx(-99.0 * 0.5)
        for row in check_ir(mech, model, x):
            assert row.verdict == "pass"

    _report(9, "pay-as-declared baseline: IR holds, truthfulness breaks", body)
