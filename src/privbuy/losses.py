"""Privacy-loss models and certified expected-loss computation.

A loss model is a family of privacy-loss functions plus the structural
properties the verifiers and audits read. Its one computation is
``expectation(mech, x, i, declared, mass_tol)``: a certified enclosure of
player i's expected loss when they declare ``declared`` while their true
type stays ``x.players[i]``. ``loss_expectation`` checks the profile and
the index, consults the memo when the model supplies an ``expectation_key``,
and calls it.

No single loss function is canonical, so this module ships families:

* ``zero_loss``              -- nobody loses anything.
* ``tight_dp_loss``          -- the extremal member of the family whose
  absolute value is capped by v_i times the worst per-outcome log-likelihood
  ratio over (monotonically related) neighbor types, summed over the
  truncated output law of the declared profile. Player i's own payment is
  excluded from the outcome an adversary sees. Default for verifiers.
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
import struct
import threading
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Callable, Optional

from .core import InputProfile, Mechanism, NeighborRelation, PlayerType, admissible_candidates
from .distributions import DEFAULT_MASS_TOL, MAX_WINDOW_ATOMS, Interval

_INF = math.inf


@dataclass(frozen=True)
class LossModel:
    """A privacy-loss function family plus its structural properties.

    ``expectation(mech, x, i, declared, mass_tol)`` returns the certified
    expected-loss ``Interval``. ``expectation_key`` takes the same arguments
    and returns a hashable memo key covering everything the expectation
    reads, the mechanism object itself included (two mechanisms may share
    parameters, never an entry), or None; without it nothing is memoized.
    ``threshold_fn(l, bits, v_minus)`` is set iff the model is increasing
    for ``delta``-distinguishability, and ``growing_with_sd`` marks a model
    that grows with statistical distance. ``relation`` and ``delta`` pin the
    neighbour relation and the delta the model was built for, when it has
    them.
    """

    respects_indifference: bool
    respects_identical_output_dists: bool
    expectation: Callable
    growing_with_sd: bool = False
    relation: Optional[NeighborRelation] = None
    delta: Optional[float] = None
    threshold_fn: Optional[Callable] = None
    expectation_key: Optional[Callable] = None


def neighbor_distances(
    mech: Mechanism,
    x: InputProfile,
    i: int,
    relation: NeighborRelation,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> tuple[tuple[PlayerType, Interval], ...]:
    """``(candidate type, certified output-law distance)`` for each
    admissible candidate of player i, one ``law_distance`` per distinct
    neighbor law key. One ``retype`` settles the truth's key and every
    candidate's.

    The last answer sits in one slot on ``mech``, keyed by ``x``'s players
    tuple (held by a strong reference, so no other tuple can take its
    identity), ``i``, ``relation`` and ``mass_tol``: an audit step and its
    loss model's look at the same hybrid settle the neighbours once."""
    players = x.players
    seen, seen_i, seen_relation, seen_tol, pairs = mech._last_neighbors
    if seen is players and seen_i == i and seen_relation is relation and seen_tol == mass_tol:
        return pairs
    cands = admissible_candidates(x, i, relation, mech.candidate_types(x, i))
    (_, base, _), *settled = mech.retype(x, i, (players[i], *cands), mass_tol)
    distances: dict = {}
    out = []
    for cand, (_, key, _) in zip(cands, settled):
        d = distances.get(key)
        if d is None:
            d = distances[key] = mech.law_distance(base, key, mass_tol)
        out.append((cand, d))
    out = tuple(out)
    mech._last_neighbors = (players, i, relation, mass_tol, out)
    return out


def max_neighbor_distance(
    mech: Mechanism,
    x: InputProfile,
    i: int,
    relation: NeighborRelation,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> Interval:
    """Enclosure of the supremum neighbor distance (0 when none exist)."""
    pairs = neighbor_distances(mech, x, i, relation, mass_tol)
    return Interval(max((d.lo for _, d in pairs), default=0.0), max((d.hi for _, d in pairs), default=0.0))


def zero_loss() -> LossModel:
    """Everyone is indifferent: loss identically zero."""
    return LossModel(
        respects_indifference=True,
        respects_identical_output_dists=True,
        expectation=lambda mech, x, i, declared, mass_tol: Interval(0.0, 0.0),
    )


def _worst_log_ratios(mech: Mechanism, support, truth_key, truth_ok: bool, rows) -> list[float]:
    """Per outcome of ``support``, the largest ln Pr[truth] - ln Pr[neighbour]
    over ``rows``, (law key, pays the others alike) pairs in order. A side
    that pays the others differently from the declaration is impossible
    (-inf everywhere), and a ratio of two impossible outcomes is 0."""
    impossible = (-_INF,) * len(support)
    cur = mech.log_pmf_table(truth_key, support) if truth_ok else impossible
    best = [-_INF] * len(support)
    for key, den_ok in rows:
        nb = mech.log_pmf_table(key, support) if den_ok else impossible
        # two impossible sides give -inf - -inf, the only NaN here (the one
        # value unequal to itself), read as 0; max keeps the earlier of two
        # equal ratios
        best = list(map(max, best, [r if r == r else 0.0 for r in map(sub, cur, nb)]))
    return best


def tight_dp_loss(mech: Mechanism, relation: NeighborRelation) -> LossModel:
    """Extremal DP-bounded loss: v_i times the worst per-outcome
    log-likelihood ratio over the mechanism's admissible candidate neighbors.

    The ratio compares what an adversary (who sees the count and the
    payments to everyone else) assigns to the realized outcome under the
    true input versus under each neighbor. ``Mechanism.retype`` settles the
    declaration, the truth and each neighbor to a law key and to the
    payments to the others. For the bundled mechanisms the payments to
    j != i never depend on player i, so the ratio reduces to a count-law
    ratio; a payment mismatch shows up as an infinite ratio. A
    zero-probability denominator against a positive numerator yields +inf
    loss, which is reported, never clipped.

    The worst-ratio row reads nothing of the valuation, so the model keeps
    it per slot: (declared key, truth key, whether the truth pays the others
    alike, the neighbour rows in first-seen order, mass_tol). Only a slot's
    first sight reads ``log_pmf_table``, once for the truth and once per
    neighbour row. Rows are stored as doubles, and the table is cleared
    before its rows would hold more than ``MAX_WINDOW_ATOMS`` entries.

    The expectation runs over the truncated output law of the declared
    profile; the enclosure widens by truncation_mass times the largest |loss|
    seen on the window. Infinite per-outcome losses propagate to infinite
    endpoints.

    The model serves only the object ``mech``, and its memo key holds
    ``mech`` itself, which keeps it alive until ``clear_expectation_cache()``.
    """
    # slot -> (declared law, worst log-ratio row, largest |entry| of the row)
    table: dict = {}
    stored = 0  # entries held by the table's rows
    lock = threading.Lock()

    def settle(slot) -> tuple:
        nonlocal stored
        lied_key, truth_key, truth_ok, rows, mass_tol = slot
        dist = mech.key_law(lied_key, mass_tol)
        best = _worst_log_ratios(mech, dist.support, truth_key, truth_ok, rows)
        # 8 bytes an entry, where a tuple would add a float object to each
        row = memoryview(struct.pack(f"{len(best)}d", *best)).cast("d")
        entry = (dist, row, max(map(abs, row), default=0.0))
        with lock:
            if stored + len(row) > MAX_WINDOW_ATOMS:
                table.clear()
                stored = 0
            if len(row) <= MAX_WINDOW_ATOMS:
                table[slot] = entry
                stored += len(row)
        return entry

    def expectation(mech2, x, i, declared, mass_tol):
        if mech2 is not mech:
            raise ValueError("loss model is bound to a different mechanism")
        truth = x.players[i]
        lied = PlayerType(truth.bit, declared)
        v = truth.valuation
        if v == 0.0:
            return Interval(0.0, 0.0)
        cands = admissible_candidates(x, i, relation, mech.candidate_types(x, i))
        if not cands:
            raise ValueError(f"no admissible {relation.value} candidates for player {i}")
        settled = mech.retype(x, i, (lied, truth, *cands), mass_tol)
        (_, lied_key, p_minus), (_, truth_key, truth_others), *nbrs = settled
        # a neighbor is read through its law key and whether it pays the others alike
        rows = tuple(dict.fromkeys((key, others == p_minus) for _, key, others in nbrs))
        slot = (lied_key, truth_key, truth_others == p_minus, rows, mass_tol)
        dist, row, peak = table.get(slot) or settle(slot)
        # rounding is monotone, so this is the largest |v * r| over the row
        bound = abs(v) * peak
        if bound == _INF:
            lam = list(map(mul, repeat(v), row))
            has_pos = any(l == _INF and p > 0.0 for l, p in zip(lam, dist.probs))
            has_neg = any(l == -_INF and p > 0.0 for l, p in zip(lam, dist.probs))
            if has_pos and has_neg:
                raise ValueError("per-outcome loss takes both +inf and -inf on the window")
            if has_pos:
                return Interval(_INF, _INF)
            if has_neg:
                return Interval(-_INF, -_INF)
        total = math.fsum(map(mul, map(mul, repeat(v), row), dist.probs))
        slack = dist.truncation_mass * bound
        return Interval(total - slack, total + slack)

    def expectation_key(mech2, x, i, declared, mass_tol):
        # player i's type and others_key fix every law, candidate and
        # payment equality the expectation reads (see Mechanism.others_key);
        # a memo hit skips the expectation, so the binding is checked here too
        if mech2 is not mech:
            raise ValueError("loss model is bound to a different mechanism")
        return (mech, relation, x.players[i], declared, mech.others_key(x, i), mass_tol)

    return LossModel(
        respects_indifference=True,
        respects_identical_output_dists=True,
        expectation=expectation,
        relation=relation,
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

    def expectation(mech, x, i, declared, mass_tol):
        v = x.players[i].valuation
        if v == 0.0:
            return Interval(0.0, 0.0)
        # a neighbor certified delta-far settles it; otherwise the largest
        # upper bound decides between 0 and a straddle
        distances = [d for _, d in neighbor_distances(mech, x, i, relation, mass_tol)]
        if any(d.lo >= delta for d in distances):
            return Interval(v, v)
        if not any(d.hi >= delta for d in distances):
            return Interval(0.0, 0.0)
        return Interval(min(0.0, v), max(0.0, v))

    return LossModel(
        respects_indifference=True,
        respects_identical_output_dists=True,
        expectation=expectation,
        relation=relation,
        delta=delta,
        threshold_fn=threshold_fn,
    )


def growing_sd_model() -> LossModel:
    """Minimal model growing with statistical distance: loss exactly v_i
    times the largest monotonic neighbor distance, as the tradeoff audit
    requires. Outcome-constant, so the expectation is the certified product
    interval."""

    def expectation(mech, x, i, declared, mass_tol):
        v = x.players[i].valuation
        if v == 0.0:
            return Interval(0.0, 0.0)
        return max_neighbor_distance(mech, x, i, NeighborRelation.MONOTONIC, mass_tol).scale(v)

    return LossModel(
        respects_indifference=True,
        respects_identical_output_dists=True,
        expectation=expectation,
        growing_with_sd=True,
        relation=NeighborRelation.MONOTONIC,
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
    ``declared`` while their true type stays ``x.players[i]``: the model's
    ``expectation``, memoized under its ``expectation_key`` when it has one."""
    mech.require_profile(x)
    if not 0 <= i < x.n:
        raise IndexError(f"player index {i} out of range for n={x.n}")
    if model.expectation_key is None:
        return model.expectation(mech, x, i, declared, mass_tol)
    key = model.expectation_key(mech, x, i, declared, mass_tol)
    hit = _EXPECTATION_CACHE.get(key)
    if hit is None:
        hit = _EXPECTATION_CACHE[key] = model.expectation(mech, x, i, declared, mass_tol)
    return hit
