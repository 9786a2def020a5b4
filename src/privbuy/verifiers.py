"""Checkers for individual rationality, truthfulness, accuracy, DP level,
and distinguishability, evaluated against exact output laws.

Every comparison is interval-sound: a check passes or fails only when the
certified enclosure lies strictly on one side of the threshold; otherwise
the verdict is "inconclusive" together with the truncation refinement that
would settle it. Truncation can therefore never flip a verdict.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .core import InputProfile, Mechanism, NeighborRelation, PlayerType, is_int
from .distributions import DEFAULT_MASS_TOL, Interval, dp_level
from .losses import LossModel, loss_expectation, neighbor_distances

# two-sided 99% normal quantile for Wilson intervals
Z99 = 2.5758293035489004

# float headroom check_dp grants the DP bound
DP_SLACK = 1e-9

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AccuracySpec:
    """Asymmetric accuracy target: the published count must land in the open
    window ((bbar - alpha) n, (bbar + alpha_prime) n) except with
    probability at most beta."""

    alpha: float
    alpha_prime: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 0 and self.alpha_prime >= 0):  # NaN fails too
            raise ValueError(f"alpha and alpha_prime must be >= 0, got {self.alpha!r} and {self.alpha_prime!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class DistinguishabilityQuery:
    """Can some admissible neighbor move player i's output law by >= delta?

    delta above 1 is allowed and trivially never distinguishable.
    """

    player: int
    delta: float
    relation: NeighborRelation

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class CheckResult:
    """One verdict row. margin is the signed distance to the threshold on
    the sound side (>= 0 for pass); witness carries the deciding neighbor,
    deviation, or refinement hint."""

    check: str
    mechanism: str
    profile: str
    player: Optional[int]
    verdict: str
    margin: float
    witness: str = ""

    def as_row(self) -> list:
        return [
            self.check,
            self.mechanism,
            self.profile,
            "" if self.player is None else self.player,
            self.verdict,
            repr(self.margin),
            self.witness,
        ]

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "mechanism": self.mechanism,
            "profile": self.profile,
            "player": self.player,
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": self.witness,
        }


def check_ir(
    mech: Mechanism,
    model: LossModel,
    x: InputProfile,
    mass_tol: float = DEFAULT_MASS_TOL,
    profile_id: str = "",
) -> list[CheckResult]:
    """Individual rationality: expected payment covers the expected loss of a
    truthful declaration, for every player."""
    mech.require_profile(x)
    pays = mech.pay_vector(x)
    out = []
    for i, p in enumerate(x.players):
        loss = loss_expectation(model, mech, x, i, p.valuation, mass_tol)
        if pays[i] >= loss.hi:
            verdict, margin = PASS, pays[i] - loss.hi
        elif pays[i] < loss.lo:
            verdict, margin = FAIL, pays[i] - loss.lo
        else:
            verdict, margin = INCONCLUSIVE, pays[i] - loss.hi
        out.append(
            CheckResult("ir", mech.name, profile_id, i, verdict, margin, f"pay={pays[i]:g} loss={loss}")
        )
    return out


def check_truthful(
    mech: Mechanism,
    model: LossModel,
    x: InputProfile,
    i: int,
    deviations=None,
    mass_tol: float = DEFAULT_MASS_TOL,
    profile_id: str = "",
) -> CheckResult:
    """No deviation in the grid beats the truthful declaration.

    ``Mechanism.declare`` settles every declaration to a pay and a law key.
    A deviation with the truth's key (identical output law and payments to
    the other players) is settled exactly when the model respects identical
    output distributions: the loss terms cancel and the utility gap is the
    payment difference. Everything else is compared interval-soundly: the
    truth's utility lower bound against the deviation's upper bound.
    """
    mech.require_profile(x)
    truth = x.players[i].valuation
    devs = tuple(deviations) if deviations is not None else mech.deviation_valuations(x, i)
    if not devs:
        raise ValueError("deviations must be nonempty")

    # the truth is settled from its own value, so a -0.0 keeps its sign
    (truth_pay, truth_key), *settled = mech.declare(x, i, (truth,) + devs, mass_tol)
    truth_loss = None  # computed lazily; identical-law deviations never need it

    # one certified profitable deviation fails the check no matter what the
    # other deviations' enclosures look like, so verdicts are bucketed
    by_verdict = {PASS: [], FAIL: [], INCONCLUSIVE: []}
    for dev, (dev_pay, dev_key) in zip(devs, settled):
        if dev_key == truth_key and model.respects_identical_output_dists:
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 99% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + Z99 * Z99 / trials
    center = (phat + Z99 * Z99 / (2 * trials)) / denom
    half = Z99 * math.sqrt(phat * (1 - phat) / trials + Z99 * Z99 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def check_accuracy(
    mech: Mechanism,
    x: InputProfile,
    spec: AccuracySpec,
    method: str = "exact",
    trials: int = 10000,
    seed: int = 0,
    mass_tol: float = DEFAULT_MASS_TOL,
    profile_id: str = "",
) -> CheckResult:
    """Probability that the count leaves the accuracy window, against beta.

    Exact mode sums the stored atoms outside the open window and treats the
    truncation mass as one-sided slack. Monte Carlo mode uses a Wilson 99%
    interval on the seeded empirical rate; a straddle is inconclusive.
    """
    mech.require_profile(x)
    if not (is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    bbar_n = x.bit_sum()
    lo_edge = bbar_n - spec.alpha * x.n
    hi_edge = bbar_n + spec.alpha_prime * x.n

    if method == "exact":
        dist = mech.output_dist(x, mass_tol)
        # the support is increasing: atoms at or below lo_edge are a prefix,
        # those at or above hi_edge a suffix, and fsum ignores term order
        below = bisect_right(dist.support, lo_edge)
        above = max(below, bisect_left(dist.support, hi_edge))
        out_lo = math.fsum(chain(dist.probs[:below], dist.probs[above:]))
        out = Interval(out_lo, min(1.0, out_lo + dist.truncation_mass))
        detail = f"Pr[outside ({lo_edge:g}, {hi_edge:g})] in {out}"
    elif method == "monte_carlo":
        import random

        counts = mech.sample_counts(x, random.Random(seed), trials)
        # a generator, so memory does not grow with trials
        misses = sum(1 for c in counts if not lo_edge < c < hi_edge)
        w = wilson_interval(misses, trials)
        out = Interval(w[0], w[1])
        detail = f"empirical {misses}/{trials}, wilson99 {out}"
    else:
        raise ValueError(f"unknown accuracy method {method!r}")

    if out.hi <= spec.beta:
        verdict, margin = PASS, spec.beta - out.hi
    elif out.lo > spec.beta:
        verdict, margin = FAIL, spec.beta - out.lo
    else:
        verdict, margin = INCONCLUSIVE, spec.beta - out.hi
    return CheckResult("accuracy", mech.name, profile_id, None, verdict, margin, detail)


def check_distinguishable(
    mech: Mechanism,
    x: InputProfile,
    query: DistinguishabilityQuery,
    mass_tol: float = DEFAULT_MASS_TOL,
    profile_id: str = "",
) -> CheckResult:
    """Whether some admissible neighbor's law is >= delta away; see
    ``distinguishability_verdict``."""
    mech.require_profile(x)
    pairs = neighbor_distances(mech, x, query.player, query.relation, mass_tol)
    return distinguishability_verdict(pairs, query, mech.name, profile_id)


def distinguishability_verdict(
    pairs: list[tuple[PlayerType, Interval]],
    query: DistinguishabilityQuery,
    mechanism: str,
    profile_id: str = "",
) -> CheckResult:
    """Verdict of a distinguishability query from its (candidate type,
    distance) pairs, as ``neighbor_distances`` returns them.

    "distinguishable" needs a certified lower bound at or above delta;
    "not_distinguishable" needs every neighbor certified below. Verdicts
    carry the maximizing neighbor as witness; straddles report the
    mass_tol refinement that would settle them.
    """
    i, delta = query.player, query.delta
    if not pairs:
        return CheckResult(
            "distinguishability", mechanism, profile_id, i, "not_distinguishable", delta, "no admissible neighbors"
        )
    by_lo = max(pairs, key=lambda pd: pd[1].lo)
    by_hi = max(pairs, key=lambda pd: pd[1].hi)
    if by_lo[1].lo >= delta:
        nbr = by_lo[0]
        return CheckResult(
            "distinguishability", mechanism, profile_id, i,
            "distinguishable", by_lo[1].lo - delta, f"neighbor type {nbr}, distance {by_lo[1]}",
        )
    if by_hi[1].hi < delta:
        nbr = by_hi[0]
        return CheckResult(
            "distinguishability", mechanism, profile_id, i,
            "not_distinguishable", delta - by_hi[1].hi, f"closest neighbor type {nbr}, distance {by_hi[1]}",
        )
    needed = min((delta - d.lo) for _, d in pairs if d.hi >= delta > d.lo) / 2.0
    return CheckResult(
        "distinguishability", mechanism, profile_id, i,
        INCONCLUSIVE, by_hi[1].hi - delta, f"straddles delta={delta:g}; refine mass_tol to <= {needed:.3g}",
    )


def check_dp(
    mech: Mechanism,
    x: InputProfile,
    bound: float,
    relation: NeighborRelation = NeighborRelation.GENERAL,
    mass_tol: float = DEFAULT_MASS_TOL,
    profile_id: str = "",
) -> list[CheckResult]:
    """Pure-DP level of the count law across each player's admissible
    neighbors, against ``bound`` (plus ``DP_SLACK``). Each distinct neighbor
    law key is settled once per call."""
    mech.require_profile(x)
    if math.isnan(bound):
        raise ValueError("bound must not be NaN")
    base = mech.key_law(mech.law_key(x, mass_tol), mass_tol)
    levels: dict = {}
    out = []
    for i in range(x.n):
        worst, worst_nbr = 0.0, None
        for cand, key in mech.neighbor_law_keys(x, i, relation, mass_tol):
            level = levels.get(key)
            if level is None:
                level = levels[key] = dp_level(base, mech.key_law(key, mass_tol))
            if level > worst:
                worst, worst_nbr = level, cand
        verdict = PASS if worst <= bound + DP_SLACK else FAIL
        witness = f"worst neighbor {worst_nbr}" if worst_nbr is not None else "no neighbors"
        out.append(CheckResult("dp", mech.name, profile_id, i, verdict, bound - worst, witness))
    return out
