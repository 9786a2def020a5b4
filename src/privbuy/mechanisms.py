"""Concrete mechanisms: the budget-threshold mechanism and its variant that
also pays high-valuation bit-0 players, uniform subsampling, and two
baselines (pay-as-declared, and the exact sum as subsampling at k = n).
"""

from __future__ import annotations

import math
import sys
from abc import abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .core import InputProfile, Mechanism, PlayerType, is_int
from .distributions import (
    DEFAULT_MASS_TOL,
    CountDistribution,
    GeomParams,
    Interval,
    geom_log_pmf,
    shifted_geom_dist,
    statistical_distance,
)


@dataclass(frozen=True)
class BudgetParams:
    """Budget B > 0 split evenly as B/n, with noise parameter epsilon.

    The participation threshold is theta = B/(2 eps n): players declaring at
    most theta have their bit counted and are paid B/n. The tie 2 eps v ==
    B/n is included (IEEE <=).
    """

    budget: float
    epsilon: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be finite and > 0, got {self.budget!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not (is_int(self.n) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        # 2 theta is a candidate valuation, and valuations are finite
        if not math.isfinite(2.0 * self.theta):
            raise ValueError(f"2 theta = budget/(epsilon n) must be finite, got theta = {self.theta!r}")

    @property
    def theta(self) -> float:
        return self.budget / (2.0 * self.epsilon * self.n)

    def qualifies(self, valuation: float) -> bool:
        return 2.0 * self.epsilon * valuation <= self.budget / self.n


@dataclass(frozen=True)
class SubsampleParams:
    """Flat payment P >= 0, subset size 1 <= k <= n, and the contextual
    distinguishability budget C with k < C (infinity when unconstrained)."""

    flat_pay: float
    sample_size: int
    n: int
    distinguishability_budget: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.flat_pay) and self.flat_pay >= 0):
            raise ValueError(f"flat_pay must be finite and >= 0, got {self.flat_pay!r}")
        if not (is_int(self.n) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (is_int(self.sample_size) and 1 <= self.sample_size <= self.n):
            raise ValueError(f"sample_size must be in [1, n], got {self.sample_size!r}")
        c = self.distinguishability_budget
        # NaN and -inf fail k < C too; +inf is the unconstrained default
        if not self.sample_size < c:
            raise ValueError(f"sample_size {self.sample_size} must be < budget C {c}")


class CountedMechanism(Mechanism):
    """A per-player rule plus a law of one count: a bit-1 player whose
    declared valuation ``counts`` adds 1 to the count, and every player is
    paid ``pay(bit, valuation)`` of their own declared type alone.

    Every law is fixed by the number of counted 1-bits, so that number is
    the law key, and the others' number is player i's ``others_key``. A
    subclass gives the rule and the law of a count (``key_law``); every key
    and every payment follows here. A subclass that overrides ``counts``
    overrides ``_counted`` to match.

    Two things are kept on the instance. The last counted profile's
    ``players`` tuple and its count sit in one slot, held by a strong
    reference, so ``law_key``, ``others_key`` and ``retype`` on one profile
    count its players once, and no other tuple can take the held one's
    identity; threads that race on the slot only miss it. ``move`` puts the
    moved profile in the slot with its count carried across the move, so a
    chain that walks by ``move`` counts only where it starts. Distances
    between keys at most one apart, the only pairs a change of one player
    makes, sit in a table: at most 2n + 1 entries per ``mass_tol``.
    """

    def __init__(self):
        self._last_count: tuple = (None, 0)
        self._distances: dict = {}

    def counts(self, valuation: float) -> bool:
        """Whether a bit-1 player declaring ``valuation`` is counted."""
        return True

    @abstractmethod
    def pay(self, bit: int, valuation: float) -> float:
        """Payment to a player who declares ``valuation`` and holds ``bit``."""

    def _counted(self, players) -> int:
        return sum([p.bit for p in players])

    def _count(self, x: InputProfile) -> int:
        """``_counted(x.players)``, read from the one-slot memo when ``x``'s
        players were the last counted."""
        players = x.players
        seen, count = self._last_count
        if seen is not players:
            count = self._counted(players)
            self._last_count = (players, count)
        return count

    @abstractmethod
    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        """The count law when ``key`` 1-bits are counted."""

    def law_key(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> int:
        self.require_profile(x)
        return self._count(x)

    def output_dist(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return self.key_law(self.law_key(x, mass_tol), mass_tol)

    def others_key(self, x: InputProfile, i: int) -> int:
        p = x.players[i]
        return self._count(x) - (p.bit if self.counts(p.valuation) else 0)

    def move(self, x: InputProfile, i: int, t: PlayerType) -> InputProfile:
        y = x.with_player(i, t)
        count = self.others_key(x, i) + (t.bit if self.counts(t.valuation) else 0)
        self._last_count = (y.players, count)
        return y

    def retype(self, x: InputProfile, i: int, types, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
        # one test of ``counts`` keys each type, and a pay reads only its own
        # player's type: player i moves no one else's
        self.require_profile(x)
        if not 0 <= i < x.n:
            raise IndexError(f"player index {i} out of range for n={x.n}")
        others, counts, pay = self.others_key(x, i), self.counts, self.pay
        return [(pay(t.bit, t.valuation), others + t.bit if counts(t.valuation) else others, ()) for t in types]

    def law_distance(self, k1: int, k2: int, mass_tol: float = DEFAULT_MASS_TOL) -> Interval:
        if abs(k1 - k2) > 1:
            return super().law_distance(k1, k2, mass_tol)
        # statistical_distance is symmetric: |p - q| == |q - p| and fsum is correctly rounded
        slot = (min(k1, k2), max(k1, k2), mass_tol)
        hit = self._distances.get(slot)
        if hit is None:
            hit = self._distances[slot] = super().law_distance(k1, k2, mass_tol)
        return hit

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        return tuple([self.pay(p.bit, p.valuation) for p in x.players])

    def max_zero_valuation_pay(self) -> float:
        # a pay reads only its own type, so both bits at valuation 0 cover every bit vector
        return max(self.pay(0, 0.0), self.pay(1, 0.0))


class ShiftedGeometricMechanism(CountedMechanism):
    """Publish the count plus two-sided geometric noise at ``epsilon``: the
    geometric mechanism of Ghosh, Roughgarden and Sundararajan, whose law
    and log-pmf table follow from the count alone.

    Two shifted windows share one probability tuple, so their distance
    depends only on the shift difference d: the terms summed are the same
    multiset for d and -d (fsum is correctly rounded, so their order cannot
    matter), and every |d| > 2t gives disjoint windows of radius t.
    ``law_distance`` therefore keeps, in place of the counted table, one
    entry per (min(|d|, 2t + 1), mass_tol) on the instance.
    """

    def __init__(self, epsilon: float):
        super().__init__()
        self.epsilon = epsilon
        self.geom = GeomParams(epsilon)

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return shifted_geom_dist(self.geom, key, mass_tol)

    def law_distance(self, k1: int, k2: int, mass_tol: float = DEFAULT_MASS_TOL) -> Interval:
        base = shifted_geom_dist(self.geom, 0, mass_tol)
        d = min(abs(k1 - k2), len(base.support))
        hit = self._distances.get((d, mass_tol))
        if hit is None:
            hit = self._distances[d, mass_tol] = statistical_distance(base, shifted_geom_dist(self.geom, d, mass_tol))
        return hit

    def log_pmf_table(self, key: int, support) -> tuple[float, ...]:
        return geom_log_pmf(self.geom, key, support)


class BudgetMechanism(ShiftedGeometricMechanism):
    """Count the bits of everyone declaring at most theta, pay them B/n,
    add geometric noise.

    With ``pay_all_zero_bits`` every bit-0 player is paid B/n regardless of
    declaration (making them truthful too). That variant's payment depends
    on the data bit, which reveals the bit to whoever pays and may be
    impractical where payment precedes data access.
    """

    def __init__(self, params: BudgetParams, pay_all_zero_bits: bool = False):
        super().__init__(params.epsilon)
        self.params = params
        self.pay_all_zero_bits = pay_all_zero_bits
        self.name = "alg1_prime" if pay_all_zero_bits else "alg1"
        self.player_count = params.n
        # BudgetParams.qualifies, hoisted: same operands, same floats
        self._two_eps, self._share = 2.0 * params.epsilon, params.budget / params.n
        theta = params.theta
        self._landmarks = tuple(dict.fromkeys((0.0, theta, 2.0 * theta)))
        self._landmark_types = tuple(PlayerType(b, w) for w in self._landmarks for b in (0, 1))

    def counts(self, valuation: float) -> bool:
        return self._two_eps * valuation <= self._share

    def pay(self, bit: int, valuation: float) -> float:
        if self._two_eps * valuation <= self._share or (self.pay_all_zero_bits and bit == 0):
            return self._share
        return 0.0

    def _counted(self, players) -> int:
        two_eps, share = self._two_eps, self._share
        return sum([p.bit for p in players if two_eps * p.valuation <= share])

    def candidate_types(self, x: InputProfile, i: int) -> tuple[PlayerType, ...]:
        # The law and the payments to others read player i's type only as
        # "qualifying bit-1 or not". Both bits at 0, theta, 2 theta and any
        # real v_i put an admissible representative in each class for both relations.
        p = x.players[i]
        if p.valuation in self._landmarks:
            return self._landmark_types
        flipped = PlayerType(1 - p.bit, p.valuation)
        return self._landmark_types + ((p, flipped) if p.bit == 0 else (flipped, p))

    def deviation_types(self, x: InputProfile, i: int) -> tuple[PlayerType, ...]:
        # player i's bit at 0, theta, 2 theta, and the truth off the landmarks
        p = x.players[i]
        own = self._landmark_types[p.bit :: 2]
        return own if p.valuation in self._landmarks else own + (p,)

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        return tuple(
            i
            for i, p in enumerate(x.players)
            if self.counts(p.valuation) or (self.pay_all_zero_bits and p.bit == 0)
        )


@lru_cache(maxsize=None)
def _subsample_law(n: int, k: int, ones: int) -> CountDistribution:
    """Exact law of round_half_even(n*m/k) with m hypergeometric(n, ones, k).

    The integer weight w = comb(ones, m) * comb(zeros, k - m) steps from m
    to m + 1 as w * ((ones - m) * (k - m)) // ((m + 1) * (zeros - k + m + 1)),
    an exact division, and w / comb(n, k) is the one rounding. Since k <= n
    the rescaled counts strictly increase with m, so each m is one atom. For
    even n a majority of ones reflects the law of n - ones: the weights are
    the same and round_half_even(n - y) = n - round_half_even(y).
    """
    zeros = n - ones
    if ones > zeros and n % 2 == 0:
        d = _subsample_law(n, k, zeros)
        return CountDistribution(tuple([n - c for c in reversed(d.support)]), d.probs[::-1], 0.0)
    total = math.comb(n, k)
    lo, hi = max(0, k - zeros), min(k, ones)
    w = math.comb(ones, lo) * math.comb(zeros, k - lo)
    support, probs = [], []
    nm = n * lo
    for m in range(lo, hi + 1):
        # round_half_even(n * m / k) in integer arithmetic, from the running n * m
        q, r = divmod(nm, k)
        support.append(q + 1 if 2 * r > k or (2 * r == k and q % 2) else q)
        # int true division is correctly rounded, as float(Fraction(...)) is;
        # a quotient that rounds to 0.0 is below 2^-1075, so the least
        # subnormal bounds it and the atom stays on the support
        probs.append(w / total or math.ulp(0.0))
        w = w * ((ones - m) * (k - m)) // ((m + 1) * (zeros - k + m + 1))
        nm += n
    return CountDistribution(tuple(support), tuple(probs), 0.0)


class SubsampleMechanism(CountedMechanism):
    """Pay everyone the flat amount, average the bits of a uniform size-k
    subset, and publish the rescaled (rounded half-even) count. Declarations
    are ignored entirely, which is what makes it trivially truthful. At
    k = n the count is the exact bit sum."""

    def __init__(self, params: SubsampleParams):
        super().__init__()
        self.params = params
        self.name = "subsample"
        self.player_count = params.n

    @property
    def distinguishability_budget(self) -> float:
        return self.params.distinguishability_budget

    def pay(self, bit: int, valuation: float) -> float:
        return self.params.flat_pay

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return _subsample_law(self.params.n, self.params.sample_size, key)

    def log_pmf_table(self, key: int, support) -> tuple[float, ...]:
        # ln of the stored atom where it is normal; below 2^-1022 it has lost
        # bits, so ln w - ln C(n, k) from the integer weight w of m = lo +
        # index (the support increases in m, a reflected law's too)
        n, k = self.params.n, self.params.sample_size
        law, lo = self.key_law(key), max(0, k - (n - key))
        out = []
        for s in support:
            p = law.prob(s)
            if p >= sys.float_info.min:
                out.append(math.log(p))
            elif p == 0.0:  # off the support: no stored atom is 0
                out.append(-math.inf)
            else:
                m = lo + bisect_left(law.support, s)
                out.append(math.log(math.comb(key, m) * math.comb(n - key, k - m)) - math.log(math.comb(n, k)))
        return tuple(out)


class PayDeclaredMechanism(ShiftedGeometricMechanism):
    """Pay each player their declared valuation times epsilon and publish the
    noisy sum of all bits. Individually rational under DP-bounded losses but
    completely untruthful: declaring higher never changes the law and always
    raises the payment."""

    def __init__(self, epsilon: float, n: int):
        super().__init__(epsilon)  # GeomParams rejects epsilon that is not finite and > 0
        if not (is_int(n) and n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        self.name = "pay_declared"
        self.player_count = n

    def pay(self, bit: int, valuation: float) -> float:
        return valuation * self.epsilon

    def deviation_types(self, x: InputProfile, i: int) -> tuple[PlayerType, ...]:
        p = x.players[i]
        vals = dict.fromkeys((0.0, p.valuation + 1.0, 100.0 * (abs(p.valuation) + 1.0), p.valuation))
        return tuple(PlayerType(p.bit, v) for v in vals)

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        return ()


def alg1(budget: float, epsilon: float, n: int) -> BudgetMechanism:
    return BudgetMechanism(BudgetParams(budget, epsilon, n))


def alg1_prime(budget: float, epsilon: float, n: int) -> BudgetMechanism:
    return BudgetMechanism(BudgetParams(budget, epsilon, n), pay_all_zero_bits=True)


def subsample(flat_pay: float, sample_size: int, n: int, distinguishability_budget: float = math.inf) -> SubsampleMechanism:
    return SubsampleMechanism(SubsampleParams(flat_pay, sample_size, n, distinguishability_budget))


def pay_declared(epsilon: float, n: int) -> PayDeclaredMechanism:
    return PayDeclaredMechanism(epsilon, n)


def exact_sum(n: int, flat_pay: float = 0.0) -> SubsampleMechanism:
    """Publish the exact bit sum and pay a flat amount (zero by default): the
    subsample mechanism at k = n, and the counterexample fed to the
    impossibility audits."""
    mech = SubsampleMechanism(SubsampleParams(flat_pay, n, n))
    mech.name = "exact_sum"
    return mech


def max_zero_valuation_pay(mech: Mechanism) -> float:
    """Max payment the mechanism makes to any player declaring valuation 0,
    over all bit vectors."""
    return mech.max_zero_valuation_pay()
