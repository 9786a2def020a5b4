"""Executable hybrid-argument audits.

Each audit walks a chain of inputs that differ one player at a time,
verifies the claims the corresponding impossibility argument makes along
the chain (payment caps, truthfulness for privacy-indifferent players,
individual rationality via non-distinguishability), and then tests the
accuracy conclusion, all against exact output laws. When the audited
mechanism breaks a claim, the report pinpoints the first broken premise in
argument order (payments, truthfulness-for-indifferent, IR, accuracy) with
a concrete witnessing hybrid.

Audits are deterministic: fixed parameters and mass_tol reproduce the
report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import InputProfile, Mechanism, NeighborRelation, PlayerType, is_int
from .distributions import DEFAULT_MASS_TOL, Interval
from .losses import LossModel, loss_expectation, neighbor_distances
from .verifiers import (
    FAIL,
    INCONCLUSIVE,
    AccuracySpec,
    CheckResult,
    DistinguishabilityQuery,
    check_accuracy,
    distinguishability_verdict,
)

# verdicts, in argument order
PAYMENTS_VIOLATED = "payments_violated"
TRUTHFULNESS_VIOLATED = "truthfulness_violated"
IR_VIOLATED = "ir_violated"
IMPOSSIBILITY_RESPECTED = "impossibility_respected"
ACCURACY_SACRIFICED = "accuracy_sacrificed"
ACCURACY_VIOLATED = "accuracy_violated"
THEOREM_CONTRADICTED = "theorem_contradicted"

_NONTRIVIAL = AccuracySpec(0.5, 0.5, 1.0 / 3.0)  # "non-trivial accuracy"


@dataclass(frozen=True)
class HybridChain:
    """A hybrid-argument chain record: a start input and one move per step.

    ``moves`` holds ``(player, type)`` pairs, each giving that player a new
    type; hybrid k + 1 is hybrid k with move k applied. ``payments`` and
    ``thresholds`` hold the per-step payment caps and threshold valuations;
    ``step_distances`` are certified enclosures between consecutive hybrids'
    count laws and ``end_to_end`` between the first and last. ``probe`` is
    the type the adaptive chains give each step's player to measure their
    pay (None when the probes are hybrids themselves). Reports write this
    form, which is O(n) where the whole hybrids would be O(n^2).
    """

    start: InputProfile
    moves: tuple[tuple[int, PlayerType], ...]
    payments: tuple[float, ...]
    thresholds: tuple[float, ...]
    step_distances: tuple[Interval, ...]
    end_to_end: Interval
    probe: Optional[PlayerType] = None

    def __post_init__(self):
        if not self.moves:
            raise ValueError("a chain needs at least one move")
        if len(self.step_distances) != len(self.moves):
            raise ValueError("need one step distance per move")
        n, current = self.start.n, list(self.start.players)
        for i, t in self.moves:
            if not (is_int(i) and 0 <= i < n):
                raise ValueError(f"move player {i!r} is not an index below n={n}")
            if not isinstance(t, PlayerType) or t == current[i]:
                raise ValueError(f"each move must change its player's type; player {i} already holds {t}")
            current[i] = t
        total = math.fsum(d.hi for d in self.step_distances)
        if self.end_to_end.lo > total + 1e-12:  # triangle inequality, float headroom
            raise ValueError(f"end-to-end distance {self.end_to_end.lo} exceeds step sum {total}")

    def to_json_dict(self) -> dict:
        return {
            "start": self.start.to_json_dict(),
            "moves": [[i, t.bit, t.valuation] for i, t in self.moves],
            "probe": None if self.probe is None else [self.probe.bit, self.probe.valuation],
            "payments": list(self.payments),
            "thresholds": list(self.thresholds),
            "step_distances": [[d.lo, d.hi] for d in self.step_distances],
            "end_to_end": [self.end_to_end.lo, self.end_to_end.hi],
        }


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: the chain, the verdict, and a claim-by-claim log."""

    audit: str
    mechanism: str
    verdict: str
    chain: Optional[HybridChain]
    failing_step: Optional[int]
    witness: str
    accuracy: tuple[CheckResult, ...]
    details: tuple[str, ...]
    params: tuple[tuple[str, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "audit": self.audit,
            "mechanism": self.mechanism,
            "verdict": self.verdict,
            "chain": None if self.chain is None else self.chain.to_json_dict(),
            "failing_step": self.failing_step,
            "witness": self.witness,
            "accuracy": [r._asdict() for r in self.accuracy],
            "details": list(self.details),
            "params": {k: v for k, v in self.params},
        }


@dataclass(frozen=True)
class TradeoffParams:
    """Parameters of the payment/accuracy tradeoff audit.

    ``max_pay`` is the known cap on what the mechanism pays any player who
    declares valuation 0. eta bounds the fraction of high-valuation players,
    eta + 2*gamma <= 1, and beta must stay below 1/2 - (max_pay/tau)*gamma*n
    (the n-dependent part is validated by the audit).
    """

    tau: float
    gamma: float
    eta: float
    beta: float
    max_pay: float

    def __post_init__(self):
        for name in ("tau", "gamma", "eta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (math.isfinite(self.max_pay) and self.max_pay >= 0):
            raise ValueError(f"max_pay must be finite and >= 0, got {self.max_pay!r}")
        if self.eta + 2.0 * self.gamma > 1.0:
            raise ValueError(f"need eta + 2*gamma <= 1, got {self.eta + 2 * self.gamma}")
        if not (0.0 <= self.beta < 0.5):
            raise ValueError(f"beta must satisfy 0 <= beta < 1/2 - (max_pay/tau)*gamma*n, got {self.beta!r}")

    def beta_cap(self, n: int) -> float:
        return 0.5 - (self.max_pay / self.tau) * self.gamma * n

    def counts_for(self, n: int) -> tuple[int, int]:
        """(h, 2*gamma*n) as exact integers; rejects non-integer splits and
        beta at or above the n-dependent cap."""
        h = self.eta * n
        g2 = 2.0 * self.gamma * n
        if abs(h - round(h)) > 1e-9 or abs(g2 - round(g2)) > 1e-9:
            raise ValueError(f"eta*n={h} and 2*gamma*n={g2} must be integers")
        if not self.beta < self.beta_cap(n):
            raise ValueError(f"beta={self.beta} must be < 1/2 - (max_pay/tau)*gamma*n = {self.beta_cap(n)}")
        return int(round(h)), int(round(g2))


def _zeros(n: int) -> InputProfile:
    return InputProfile.from_arrays([0] * n, [0.0] * n)


def _consecutive_distances(mech: Mechanism, keys: list, mass_tol):
    """Step distances between consecutive law keys of a chain, and the
    end-to-end distance."""
    steps = tuple(mech.law_distance(a, b, mass_tol) for a, b in zip(keys, keys[1:]))
    return steps, mech.law_distance(keys[0], keys[-1], mass_tol)


def audit_delta(relation: NeighborRelation, n: int, delta: Optional[float] = None) -> float:
    """delta of the audit over ``relation`` at n players: when None, its cap
    1/(6n) (general) or 1/(3n) (monotonic), which keeps the chain's
    end-to-end distance at most 1/3; refused outside (0, cap]."""
    per = 6 if relation is NeighborRelation.GENERAL else 3
    cap = 1.0 / (per * n)
    if not (delta is None or 0.0 < delta <= cap):
        raise ValueError(f"delta must be in (0, 1/({per}n)] = (0, {cap!r}], got {delta}")
    return cap if delta is None else delta


def _validate(mech: Mechanism, model: LossModel, relation: NeighborRelation, delta: Optional[float]) -> tuple[int, float]:
    """n and delta (see ``audit_delta``; the model's own delta when None) of
    an audit driven by an increasing model over ``relation``."""
    n = mech.player_count
    delta = audit_delta(relation, n, model.delta if delta is None else delta)
    if not model.respects_indifference:
        raise ValueError("audit needs a model that respects indifference")
    if model.threshold_fn is None:
        raise ValueError("audit needs an increasing model with a threshold function")
    if model.relation is not None and model.relation is not relation:
        raise ValueError(f"model is bound to {model.relation}, audit needs {relation}")
    if model.delta is not None and model.delta != delta:
        raise ValueError(f"model delta {model.delta} differs from audit delta {delta}")
    return n, delta


def _escape_note(mech: Mechanism, max_seen: float) -> list[str]:
    # A mechanism advertising a distinguishability budget C keeps every
    # player's neighbor distance below C/n; loss models that stay bounded
    # below C/n-distinguishability cannot force it into the argument.
    cap = mech.distinguishability_budget
    if not math.isfinite(cap):
        return []
    ratio = cap / mech.player_count
    if max_seen < ratio:
        return [
            f"note: max observed neighbor distance {max_seen:.6g} < C/n = {ratio:.6g}; "
            "the flag above only binds loss models that grow below C/n-distinguishability"
        ]
    return [f"note: max observed neighbor distance {max_seen:.6g} >= C/n = {ratio:.6g}"]


def _ir_step(
    mech: Mechanism, model: LossModel, x: InputProfile, query: DistinguishabilityQuery, level: float,
    mass_tol: float, found: dict, details: list[str], what: str, claim: str, where: str,
) -> float:
    """Player i's IR claim at hybrid ``x``: were ``x`` delta-distinguishable
    for them, the model's loss at valuation ``level`` would exceed their pay
    (``claim``). Logs the step, records a violation or a straddle in
    ``found``, and returns the largest neighbor distance hi (0 when no
    neighbor exists). ``what`` and ``where`` name the hybrid in the log and in
    the witness."""
    i, delta = query.player, query.delta
    pairs = neighbor_distances(mech, x, i, query.relation, mass_tol)
    res = distinguishability_verdict(pairs, query, mech.name)
    far = "monotonically-distinguishable" if query.relation is NeighborRelation.MONOTONIC else "distinguishable"
    if res.verdict == "distinguishable":
        loss = loss_expectation(model, mech, x, i, level, mass_tol)
        detail = (
            f"step {i}: {what} is {delta:g}-{far} for player {i} ({res.witness}); "
            f"model loss {loss} > {claim}: IR VIOLATED"
        )
        details.append(detail)
        if not found[IR_VIOLATED]:  # only the first is a witness, and x prints in O(n)
            found[IR_VIOLATED].append((i, f"{where} = {x}: {detail}"))
    elif res.verdict == INCONCLUSIVE:
        found[INCONCLUSIVE].append((i, f"distinguishability straddles delta at step {i}; refine mass_tol"))
        details.append(f"step {i}: distinguishability inconclusive ({res.witness})")
    else:
        details.append(f"step {i}: not {delta:g}-{far} for player {i}")
    return max((d.hi for _, d in pairs), default=0.0)


def _report(
    audit: str, mech: Mechanism, chain: Optional[HybridChain], accuracy: tuple[CheckResult, ...],
    details: list[str], params: tuple, found: dict, holds: str = "",
    on_fail: Optional[Callable] = None, unsettled: str = "", intact: str = "",
) -> AuditReport:
    """The verdict ladder every audit ends in.

    ``found`` maps each premise verdict, in argument order, to its
    (step, witness) violations; the first premise with one decides. When
    every premise holds, ``holds`` is logged and the last failing accuracy
    row decides through ``on_fail(row) -> (verdict, step, witness, detail)``;
    else an inconclusive row makes the audit inconclusive (witness
    ``unsettled``); else accuracy holds where the theorem says it cannot
    (witness ``intact``).
    """
    for verdict, violations in found.items():
        if violations:
            step, witness = violations[0]
            break
    else:
        details.append(holds)
        failed = [r for r in accuracy if r.verdict == FAIL]
        if failed:
            verdict, step, witness, detail = on_fail(failed[-1])
            details.append(detail)
        elif any(r.verdict == INCONCLUSIVE for r in accuracy):
            verdict, step, witness = INCONCLUSIVE, None, unsettled
        else:
            verdict, step, witness = THEOREM_CONTRADICTED, None, intact
    return AuditReport(audit, mech.name, verdict, chain, step, witness, accuracy, tuple(details), params)


def _endpoint_rungs(verdict: str, consequence: str) -> dict:
    """The accuracy rungs of the general and monotonic audits, whose two
    accuracy rows are the chain's endpoints."""
    return dict(
        on_fail=lambda r: (
            verdict, None, f"accuracy fails on {r.profile}: {r.witness}",
            f"(1/2, 1/3)-accuracy fails on {r.profile}: {consequence}",
        ),
        unsettled="endpoint accuracy inconclusive; refine mass_tol",
        intact="chain and both endpoint accuracies hold; this should be impossible",
    )


def audit_general_impossibility(
    mech: Mechanism,
    model: LossModel,
    delta: Optional[float] = None,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> AuditReport:
    """Chain from all-zeros to all-ones through 2n+1 inputs: flip player i's
    bit to 1 with valuation L, then drop the valuation back to 0.

    P is the most player i is paid at hybrid 2i+2, where players 0..i hold
    (1, 0), over i. For a mechanism satisfying the premises, every probe
    input must be non-distinguishable, so the end-to-end distance stays
    below 2n*delta <= 1/3 and (1/2, 1/3)-accuracy must break on an endpoint.
    Otherwise the report names the first broken premise.
    """
    n, delta = _validate(mech, model, NeighborRelation.GENERAL, delta)
    audit = "general_impossibility"
    # hybrid 2i+2's pays and law keys do not depend on L, so they come first:
    # player i is retyped to (1, 0) at hybrid 2i, players 0..i-1 already there
    low, start = PlayerType(1, 0.0), _zeros(n)
    afters, x = [], start
    for i in range(n):
        afters.append(mech.retype(x, i, (low,), mass_tol)[0])
        x = mech.move(x, i, low)
    # a pay that is not finite, NaN included, leaves the cap unbounded
    who = next((i for i, (pay, _, _) in enumerate(afters) if not math.isfinite(pay)), None)
    pay_cap = max(pay for pay, _, _ in afters) if who is None else afters[who][0]
    details = [f"payment cap over all-indifferent inputs: P = {pay_cap:g}"]
    if who is not None:
        return _report(audit, mech, None, (), details, (("delta", delta), ("n", float(n))),
                       {PAYMENTS_VIOLATED: [(who, f"payment not finite at step {who}")]})

    # T is read only where the IR step needs L >= T: at probe 2i+1, whose
    # bits are i+1 ones then zeros and whose other valuations are all 0
    zeros = (0.0,) * (n - 1)
    threshold = max(model.threshold_fn(pay_cap, (1,) * (i + 1) + (0,) * (n - 1 - i), zeros) for i in range(n))
    details.append(f"threshold valuation: L = {threshold:g}")

    # step i moves player i to (1, L), the probe, and then to (1, 0); each
    # move starts from the last, so a counted mechanism's slot holds it
    high = PlayerType(1, threshold)
    keys = [mech.law_key(start, mass_tol)]
    found: dict = {TRUTHFULNESS_VIOLATED: [], IR_VIOLATED: [], INCONCLUSIVE: []}
    max_seen = 0.0
    x = start
    for i, (pay_after, after_key, _) in enumerate(afters):
        probe = mech.move(x, i, high)
        [(pay_probe, probe_key, _)] = mech.retype(probe, i, (high,), mass_tol)
        keys += (probe_key, after_key)
        ok = pay_probe <= pay_after
        details.append(
            f"step {i}: truthful-for-indifferent claim pay {pay_probe:g} <= {pay_after:g} <= P: "
            + ("ok" if ok else "VIOLATED")
        )
        if not ok:
            found[TRUTHFULNESS_VIOLATED].append(
                (i, f"indifferent player {i} gains by declaring L at chain input {2 * i + 1}")
            )
        query = DistinguishabilityQuery(i, delta, NeighborRelation.GENERAL)
        hi = _ir_step(mech, model, probe, query, threshold, mass_tol, found, details, "probe hybrid",
                      f"P = {pay_cap:g} >= pay {pay_probe:g}", f"chain input {2 * i + 1}")
        max_seen = max(max_seen, hi)
        x = mech.move(probe, i, low)

    steps, end = _consecutive_distances(mech, keys, mass_tol)
    moves = tuple((i, t) for i in range(n) for t in (high, low))
    chain = HybridChain(start, moves, (pay_cap,) * n, (threshold,) * n, steps, end)
    accuracy = (
        check_accuracy(mech, start, _NONTRIVIAL, mass_tol=mass_tol, profile_id="all_zeros"),
        check_accuracy(mech, x, _NONTRIVIAL, mass_tol=mass_tol, profile_id="all_ones"),
    )
    params = (("delta", delta), ("n", float(n)), ("P", pay_cap), ("L", threshold))
    details.extend(_escape_note(mech, max_seen))
    return _report(
        audit, mech, chain, accuracy, details, params, found,
        f"all probes indistinguishable, so end-to-end distance {end} stays below 2n*delta = {2 * n * delta:g} <= 1/3",
        **_endpoint_rungs(IMPOSSIBILITY_RESPECTED, "the impossibility is respected"),
    )


def audit_monotonic_impossibility(
    mech: Mechanism,
    model: LossModel,
    delta: Optional[float] = None,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> AuditReport:
    """Adaptive chain ruling out accuracy for all valuations even under
    monotonic-only distinguishability.

    Step i measures P_i = pay of player i when they flip their bit to 1 at
    valuation 0, derives the threshold L_i = T(P_i, .) from the model, and
    raises the valuation to L_i. Non-distinguishability of every hybrid
    forces the all-zeros and all-ones-at-L laws within n*delta <= 1/3, so a
    surviving mechanism must give up (1/2, 1/3)-accuracy on an endpoint.
    """
    n, delta = _validate(mech, model, NeighborRelation.MONOTONIC, delta)
    audit = "monotonic_impossibility"
    details: list[str] = []
    moves: list[tuple[int, PlayerType]] = []
    pays: list[float] = []
    thresholds: list[float] = []
    found: dict = {TRUTHFULNESS_VIOLATED: [], IR_VIOLATED: [], INCONCLUSIVE: []}
    max_seen = 0.0

    probe = PlayerType(1, 0.0)
    start = x = _zeros(n)
    keys = [mech.law_key(x, mass_tol)]
    # the probe's bits and the others' valuations, moved one entry per step:
    # players before i hold (1, L_j), the rest (0, 0.0)
    bits, v_minus = [0] * n, [0.0] * (n - 1)
    for i in range(n):
        # L_i reads P_i, so player i is retyped twice: to the probe, then to (1, L_i)
        [(pay_i, _, _)] = mech.retype(x, i, (probe,), mass_tol)
        if not math.isfinite(pay_i):
            # no finite threshold exists, so the chain cannot be continued
            details.append(f"step {i}: payment at the probe input is not finite: VIOLATED")
            return _report(audit, mech, None, (), details, (("delta", delta), ("n", float(n))),
                           {PAYMENTS_VIOLATED: [(i, f"payment not finite at step {i}")]})
        bits[i] = 1
        level = model.threshold_fn(pay_i, tuple(bits), tuple(v_minus))
        t = PlayerType(1, level)
        if i < n - 1:
            v_minus[i] = t.valuation  # the float PlayerType stored
        [(pay_after, key, _)] = mech.retype(x, i, (t,), mass_tol)
        ok = pay_after <= pay_i
        details.append(
            f"step {i}: P_{i} = {pay_i:g}, L_{i} = {level:g}; "
            f"truthful-for-indifferent claim pay {pay_after:g} <= P_{i}: " + ("ok" if ok else "VIOLATED")
        )
        if not ok:
            found[TRUTHFULNESS_VIOLATED].append((i, f"indifferent player {i} gains by declaring L_{i} at hybrid {i + 1}"))
        x = mech.move(x, i, t)
        query = DistinguishabilityQuery(i, delta, NeighborRelation.MONOTONIC)
        hi = _ir_step(mech, model, x, query, level, mass_tol, found, details, "hybrid",
                      f"P_{i} = {pay_i:g} >= pay {pay_after:g}", f"hybrid {i + 1}")
        max_seen = max(max_seen, hi)
        keys.append(key)
        moves.append((i, t))
        pays.append(pay_i)
        thresholds.append(level)

    steps, end = _consecutive_distances(mech, keys, mass_tol)
    chain = HybridChain(start, tuple(moves), tuple(pays), tuple(thresholds), steps, end, probe)
    accuracy = (
        check_accuracy(mech, start, _NONTRIVIAL, mass_tol=mass_tol, profile_id="all_zeros"),
        check_accuracy(mech, x, _NONTRIVIAL, mass_tol=mass_tol, profile_id="all_ones_at_L"),
    )
    details.extend(_escape_note(mech, max_seen))
    return _report(
        audit, mech, chain, accuracy, details, (("delta", delta), ("n", float(n))), found,
        f"chain completes: end-to-end distance {end} stays below n*delta = {n * delta:g} <= 1/3",
        **_endpoint_rungs(
            ACCURACY_SACRIFICED,
            "accuracy is sacrificed on high-valuation inputs while IR and claimed truthfulness survive",
        ),
    )


def audit_payment_accuracy_tradeoff(
    mech: Mechanism,
    model: LossModel,
    params: TradeoffParams,
    mass_tol: float = DEFAULT_MASS_TOL,
) -> AuditReport:
    """With payments to zero-valuation declarers capped at P, accuracy cannot
    beat ([eta+gamma, gamma], beta) once beta < 1/2 - (P/tau)*gamma*n.

    The chain flips h = eta*n players to valuation L and another 2*gamma*n
    to valuation tau. Growing-with-distance losses plus IR cap each step's
    law movement at P/L resp. P/tau, so the hybrid laws cannot track the
    drifting accuracy windows A(i) and some hybrid must fail accuracy.
    """
    n = mech.player_count
    if not model.growing_with_sd or model.relation is not NeighborRelation.MONOTONIC:
        raise ValueError("audit needs a model growing with statistical distance for monotonic neighbors")
    if not model.respects_indifference:
        raise ValueError("audit needs a model that respects indifference")
    h, g2 = params.counts_for(n)
    if h + g2 < 1:
        raise ValueError("chain needs at least one step (eta*n + 2*gamma*n >= 1)")
    cap = params.max_pay
    denom = 1.0 - 2.0 * (cap / params.tau) * params.gamma * n - 2.0 * params.beta
    # the argument works for any L at or above the bound; flooring at tau
    # keeps step valuations positive even when the cap is 0
    level = max(cap * h / denom, params.tau) if h > 0 else params.tau

    details = [
        f"h = {h} players at L = {level:g}, {g2} players at tau = {params.tau:g}, payment cap P = {cap:g}"
    ]
    moves: list[tuple[int, PlayerType]] = []
    observed_pays: list[float] = []
    highs: list[float] = []
    found: dict = {PAYMENTS_VIOLATED: [], TRUTHFULNESS_VIOLATED: [], IR_VIOLATED: [], INCONCLUSIVE: []}

    acc_spec = AccuracySpec(params.eta + params.gamma, params.gamma, params.beta)
    probe = PlayerType(1, 0.0)
    start = x = _zeros(n)
    # each hybrid is reached by ``move``, so a counted mechanism carries its
    # count there, and its accuracy check and the next retype read it
    keys = [mech.law_key(x, mass_tol)]
    accuracy = [check_accuracy(mech, x, acc_spec, mass_tol=mass_tol, profile_id="hybrid_0")]
    for i in range(h + g2):
        high = level if i < h else params.tau
        t = PlayerType(1, high)
        (pay_probe, _, _), (pay_after, key, _) = mech.retype(x, i, (probe, t), mass_tol)
        if not pay_probe <= cap:
            found[PAYMENTS_VIOLATED].append((i, f"payment cap premise fails at step {i}"))
            details.append(f"step {i}: pay {pay_probe:g} to a zero-valuation declarer exceeds P = {cap:g}: VIOLATED")
        if not pay_after <= pay_probe:
            found[TRUTHFULNESS_VIOLATED].append((i, f"truthfulness-for-indifferent fails at step {i}"))
            details.append(f"step {i}: indifferent player gains by declaring {high:g} ({pay_probe:g} -> {pay_after:g}): VIOLATED")
        x = mech.move(x, i, t)
        keys.append(key)
        accuracy.append(check_accuracy(mech, x, acc_spec, mass_tol=mass_tol, profile_id=f"hybrid_{i + 1}"))
        moves.append((i, t))
        observed_pays.append(pay_probe)
        highs.append(high)

    steps, end = _consecutive_distances(mech, keys, mass_tol)
    for i, d in enumerate(steps):
        bound = cap / highs[i]
        if d.lo >= bound:
            detail = (
                f"step {i}: law moved by {d} although IR plus growing-with-distance losses cap it "
                f"below P/v = {bound:g}: IR VIOLATED"
            )
            details.append(detail)
            found[IR_VIOLATED].append((i, detail))
        elif d.hi >= bound:
            found[INCONCLUSIVE].append((i, f"step distance straddles its cap at step {i}; refine mass_tol"))
            details.append(f"step {i}: step distance {d} straddles the cap P/v = {bound:g}")
        else:
            details.append(f"step {i}: step distance {d} < P/v = {bound:g}: ok")

    chain = HybridChain(start, tuple(moves), tuple(observed_pays), tuple(highs), steps, end, probe)
    report_params = (
        ("beta", params.beta), ("eta", params.eta), ("gamma", params.gamma),
        ("tau", params.tau), ("P", cap), ("L", level), ("n", float(n)),
    )
    drift_bound = h * (cap / level if level > 0 else 0.0) + g2 * cap / params.tau
    return _report(
        "payment_accuracy_tradeoff", mech, chain, tuple(accuracy), details, report_params, found,
        f"premises hold: end-to-end distance {end} < h*P/L + 2*gamma*n*P/tau = {drift_bound:g} <= {1.0 - 2.0 * params.beta:g}",
        on_fail=lambda r: (
            ACCURACY_VIOLATED, int(r.profile.rsplit("_", 1)[1]), f"{r.profile}: {r.witness}",
            f"([eta+gamma, gamma], beta)-accuracy fails at {r.profile}: {r.witness}",
        ),
        unsettled="a hybrid accuracy check straddles beta; refine mass_tol",
        intact="premises and accuracy hold at every hybrid; this should be impossible",
    )
