"""Privacy-loss models and certified expected-loss computation.

A loss model assigns player i a per-outcome disutility
lambda(x, i, declared, s, p_minus_i); the expected loss is taken over the
output law of the mechanism run on the declared profile. Player i's own
payment is excluded from the outcome an adversary sees.

No single loss function is canonical, so this module ships families:

* ``zero_loss``              -- nobody loses anything.
* ``tight_dp_loss``          -- the extremal member of the family whose
  absolute value is capped by v_i times the worst per-outcome log-likelihood
  ratio over (monotonically related) neighbor types. Default for verifiers.
* ``increasing_threshold_model`` -- synthetic: loss v_i on inputs where some
  neighbor's law is delta-far, 0 otherwise; above the threshold T(l) the
  loss exceeds l. Drives the impossibility audits.
* ``growing_sd_model``       -- loss at least v_i times the largest neighbor
  total-variation distance. Drives the payment/accuracy tradeoff audit.

Verdicts are per-model; all shipped models respect indifference (a
zero-valuation player loses nothing whatever they declare).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import InputProfile, Mechanism, NeighborRelation
from .distributions import DEFAULT_MASS_TOL, Interval, statistical_distance

_INF = math.inf


@dataclass(frozen=True)
class LossModel:
    """A privacy-loss function family plus its structural properties.

    ``per_outcome(mech, x, i, declared, s, p_minus)`` is the pointwise loss.
    ``outcome_table`` evaluates it on a whole support at once, and takes
    precedence. ``exact_expectation`` short-circuits the expectation when it
    has a closed form (outcome-constant models) and takes precedence over
    both. A model sets at least one of the three. ``expectation_key`` returns
    a hashable memo key covering everything the expectation reads, or None.
    ``threshold_fn(l, bits, v_minus)`` is present iff increasing_for_delta.
    """

    kind: str
    respects_indifference: bool
    respects_identical_output_dists: bool
    bounded_by_dp: bool = False
    bounded_by_dp_monotonic: bool = False
    growing_with_sd: bool = False
    increasing_for_delta: bool = False
    relation: Optional[NeighborRelation] = None
    delta: Optional[float] = None
    threshold_fn: Optional[Callable] = None
    per_outcome: Optional[Callable] = None
    outcome_table: Optional[Callable] = None
    exact_expectation: Optional[Callable] = None
    expectation_key: Optional[Callable] = None

    def __post_init__(self):
        if self.per_outcome is None and self.outcome_table is None and self.exact_expectation is None:
            raise ValueError(f"loss model {self.kind!r} sets none of per_outcome, outcome_table, exact_expectation")


def neighbor_distances(
    mech: Mechanism,
    x: InputProfile,
    i: int,
    relation: NeighborRelation,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> list[tuple[InputProfile, Interval]]:
    """Certified output-law distance to each admissible candidate neighbor."""
    base = mech.output_dist(x, mass_tol)
    return [
        (nbr, statistical_distance(base, mech.output_dist(nbr, mass_tol)))
        for nbr in mech.neighbor_profiles(x, i, relation)
    ]


def max_neighbor_distance(
    mech: Mechanism,
    x: InputProfile,
    i: int,
    relation: NeighborRelation,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> Interval:
    """Enclosure of the supremum neighbor distance (0 when none exist)."""
    pairs = neighbor_distances(mech, x, i, relation, mass_tol)
    if not pairs:
        return Interval(0.0, 0.0)
    return Interval(max(d.lo for _, d in pairs), max(d.hi for _, d in pairs))


def _pay_minus(mech: Mechanism, x: InputProfile, i: int) -> tuple[float, ...]:
    pays = mech.pay_vector(x)
    return pays[:i] + pays[i + 1 :]


def zero_loss() -> LossModel:
    """Everyone is indifferent: loss identically zero."""
    return LossModel(
        kind="zero",
        respects_indifference=True,
        respects_identical_output_dists=True,
        bounded_by_dp=True,
        bounded_by_dp_monotonic=True,
        exact_expectation=lambda mech, x, i, declared, mass_tol: Interval(0.0, 0.0),
    )


def tight_dp_loss(mech: Mechanism, relation: NeighborRelation) -> LossModel:
    """Extremal DP-bounded loss: v_i times the worst per-outcome
    log-likelihood ratio over the mechanism's admissible candidate neighbors.

    The ratio compares what an adversary (who sees the count and the
    payments to everyone else) assigns to the realized outcome under the
    true input versus under each neighbor. For the bundled mechanisms the
    payments to j != i never depend on player i, so the ratio reduces to a
    count-law ratio; a payment mismatch shows up as an infinite ratio. A
    zero-probability denominator against a positive numerator yields +inf
    loss, which is reported, never clipped.
    """
    monotonic = relation is NeighborRelation.MONOTONIC
    kind = "dp_bounded_monotonic" if monotonic else "dp_bounded_general"

    def outcome_table(mech2, x, i, declared, support, p_minus):
        if mech2.cache_token != mech.cache_token:
            raise ValueError("loss model is bound to a different mechanism")
        v = x.players[i].valuation
        if v == 0.0:
            return (0.0,) * len(support)
        neighbors = mech.neighbor_profiles(x, i, relation)
        if not neighbors:
            raise ValueError(f"no admissible {relation.value} candidates for player {i}")
        cur = mech.log_pmf_table(x, support)
        num_ok = _pay_minus(mech, x, i) == p_minus
        best = [-_INF] * len(support)
        for nbr in neighbors:
            nb = mech.log_pmf_table(nbr, support)
            den_ok = _pay_minus(mech, nbr, i) == p_minus
            for j in range(len(support)):
                a = cur[j] if num_ok else -_INF
                b = nb[j] if den_ok else -_INF
                # both outcomes impossible: the ratio carries no information
                r = 0.0 if (a == -_INF and b == -_INF) else a - b
                if r > best[j]:
                    best[j] = r
        return tuple(v * r for r in best)

    def expectation_key(mech2, x, i, declared, mass_tol):
        # player i's type and others_key fix every law, candidate and
        # payment equality the expectation reads (see Mechanism.others_key)
        return (mech2.cache_token, kind, x.players[i], declared, mech2.others_key(x, i), mass_tol)

    return LossModel(
        kind=kind,
        respects_indifference=True,
        respects_identical_output_dists=True,
        bounded_by_dp=not monotonic,
        bounded_by_dp_monotonic=monotonic,
        relation=relation,
        outcome_table=outcome_table,
        expectation_key=expectation_key,
    )


def default_threshold(ell: float, bits=None, v_minus=None) -> float:
    """T(l) = l + 1, the simplest threshold that forces loss above l."""
    return ell + 1.0


def increasing_threshold_model(
    delta: float,
    threshold_fn: Callable = default_threshold,
    relation: NeighborRelation = NeighborRelation.GENERAL,
) -> LossModel:
    """Synthetic audit model: loss v_i when some admissible neighbor's law is
    at least delta away in total variation, 0 otherwise.

    If v_i >= T(l, .) = l + 1 (by default) and the input is
    delta-distinguishable, the loss v_i exceeds l, so the model is
    increasing for delta-distinguishability by construction. The indicator
    looks at the true input, so the model respects indifference and
    identical output distributions trivially. The loss is outcome-constant,
    so its expectation is exact (no truncation slack); an interval-straddle
    on the distance shows up as a [0, v_i]-wide enclosure.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")

    def exact_expectation(mech, x, i, declared, mass_tol):
        v = x.players[i].valuation
        if v == 0.0:
            return Interval(0.0, 0.0)
        # the first neighbor certified delta-far settles it; otherwise the
        # largest upper bound decides between 0 and a straddle
        base = mech.output_dist(x, mass_tol)
        straddles = False
        for nbr in mech.neighbor_profiles(x, i, relation):
            dist = statistical_distance(base, mech.output_dist(nbr, mass_tol))
            if dist.lo >= delta:
                return Interval(v, v)
            straddles = straddles or dist.hi >= delta
        if not straddles:
            return Interval(0.0, 0.0)
        return Interval(min(0.0, v), max(0.0, v))

    return LossModel(
        kind="increasing_with_threshold",
        respects_indifference=True,
        respects_identical_output_dists=True,
        increasing_for_delta=True,
        relation=relation,
        delta=delta,
        threshold_fn=threshold_fn,
        exact_expectation=exact_expectation,
    )


def growing_sd_model(relation: NeighborRelation = NeighborRelation.MONOTONIC) -> LossModel:
    """Minimal model growing with statistical distance: loss exactly v_i
    times the largest admissible neighbor distance. Outcome-constant, so the
    expectation is the certified product interval."""

    def exact_expectation(mech, x, i, declared, mass_tol):
        v = x.players[i].valuation
        if v == 0.0:
            return Interval(0.0, 0.0)
        return max_neighbor_distance(mech, x, i, relation, mass_tol).scale(v)

    return LossModel(
        kind="growing_sd_monotonic",
        respects_indifference=True,
        respects_identical_output_dists=True,
        growing_with_sd=True,
        relation=relation,
        exact_expectation=exact_expectation,
    )


_EXPECTATION_CACHE: dict = {}


def clear_expectation_cache() -> None:
    _EXPECTATION_CACHE.clear()


def loss_expectation(
    model: LossModel,
    mech: Mechanism,
    x: InputProfile,
    i: int,
    declared: float,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> Interval:
    """Certified enclosure of player i's expected loss when they declare
    ``declared`` while their true type stays ``x.players[i]``.

    The expectation runs over the truncated output law of the declared
    profile; the enclosure widens by truncation_mass times the largest |loss|
    seen on the window. Infinite per-outcome losses propagate to infinite
    endpoints (reported, not clipped).
    """
    mech.require_profile(x)
    if not 0 <= i < x.n:
        raise IndexError(f"player index {i} out of range for n={x.n}")
    if model.exact_expectation is not None:
        return model.exact_expectation(mech, x, i, declared, mass_tol)

    key = None
    if model.expectation_key is not None:
        key = model.expectation_key(mech, x, i, declared, mass_tol)
        hit = _EXPECTATION_CACHE.get(key)
        if hit is not None:
            return hit

    declared_profile = x.with_valuation(i, declared)
    dist = mech.output_dist(declared_profile, mass_tol)
    p_minus = _pay_minus(mech, declared_profile, i)
    if model.outcome_table is not None:
        lam = model.outcome_table(mech, x, i, declared, dist.support, p_minus)
    else:
        lam = [model.per_outcome(mech, x, i, declared, s, p_minus) for s in dist.support]

    has_pos = any(l == _INF and p > 0.0 for l, p in zip(lam, dist.probs))
    has_neg = any(l == -_INF and p > 0.0 for l, p in zip(lam, dist.probs))
    if has_pos and has_neg:
        raise ValueError("per-outcome loss takes both +inf and -inf on the window")
    if has_pos:
        result = Interval(_INF, _INF)
    elif has_neg:
        result = Interval(-_INF, -_INF)
    else:
        total = math.fsum(l * p for l, p in zip(lam, dist.probs))
        sup = max((abs(l) for l in lam), default=0.0)
        slack = dist.truncation_mass * sup
        result = Interval(total - slack, total + slack)

    if key is not None:
        _EXPECTATION_CACHE[key] = result
    return result
