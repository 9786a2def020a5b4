"""Concrete mechanisms: the budget-threshold mechanism and its variant that
also pays high-valuation bit-0 players, uniform subsampling, and two
baselines (pay-as-declared, exact sum).
"""

from __future__ import annotations

import math
import random
from abc import abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .core import (
    InputProfile,
    Mechanism,
    NeighborRelation,
    PlayerType,
    admissible_candidates,
    finite_valuation,
    is_int,
)
from .distributions import (
    DEFAULT_MASS_TOL,
    CountDistribution,
    GeomParams,
    Interval,
    sample_geoms,
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
        if math.isfinite(c) and not self.sample_size < c:
            raise ValueError(f"sample_size {self.sample_size} must be < budget C {c}")


def _require_player(mech: Mechanism, x: InputProfile, i: int) -> None:
    mech.require_profile(x)
    if not 0 <= i < x.n:
        raise IndexError(f"player index {i} out of range for n={x.n}")


class CountedMechanism(Mechanism):
    """A per-player rule plus a law of one count: a bit-1 player whose
    declared valuation ``counts`` adds 1 to the count, and every player is
    paid ``pay(bit, valuation)`` of their own declared type alone.

    Every law is fixed by the number of counted 1-bits, so that number is
    the law key, and the others' number is player i's ``others_key``. A
    subclass gives the rule, ``cache_token``, the law of a count
    (``key_law``) and its sampler; every key and every payment follows
    here. A subclass that overrides ``counts`` overrides
    ``_counted`` to match.
    """

    def counts(self, valuation: float) -> bool:
        """Whether a bit-1 player declaring ``valuation`` is counted."""
        return True

    @abstractmethod
    def pay(self, bit: int, valuation: float) -> float:
        """Payment to a player who declares ``valuation`` and holds ``bit``."""

    def _counted(self, players) -> int:
        return sum([p.bit for p in players])

    @abstractmethod
    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        """The count law when ``key`` 1-bits are counted."""

    def law_key(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> int:
        self.require_profile(x)
        return self._counted(x.players)

    def output_dist(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return self.key_law(self.law_key(x, mass_tol), mass_tol)

    def others_key(self, x: InputProfile, i: int) -> int:
        p = x.players[i]
        return self._counted(x.players) - (p.bit if self.counts(p.valuation) else 0)

    def declare(self, x: InputProfile, i: int, values, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
        # one test of ``counts`` keys each declaration, and no one else's pay moves
        _require_player(self, x, i)
        others, bit = self.others_key(x, i), x.players[i].bit
        return [(self.pay(bit, v), others + bit if self.counts(v) else others) for v in map(finite_valuation, values)]

    def neighbor_law_keys(
        self, x: InputProfile, i: int, relation: NeighborRelation, mass_tol: float = DEFAULT_MASS_TOL
    ) -> list[tuple[PlayerType, int]]:
        _require_player(self, x, i)
        others = self.others_key(x, i)
        return [
            (c, others + c.bit if self.counts(c.valuation) else others)
            for c in admissible_candidates(x, i, relation, self.candidate_types(x, i))
        ]

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        return tuple([self.pay(p.bit, p.valuation) for p in x.players])

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        p = x.players[i]
        return self.pay(p.bit, p.valuation)

    def others_pays(self, x: InputProfile, i: int, player: PlayerType) -> tuple:
        # a pay reads only its own player's type: player i moves no one else's
        return ()

    def max_zero_valuation_pay(self) -> float:
        # a pay reads only its own type, so both bits at valuation 0 cover every bit vector
        return max(self.pay(0, 0.0), self.pay(1, 0.0))


class ShiftedGeometricMechanism(CountedMechanism):
    """Publish the count plus two-sided geometric noise at ``epsilon``: the
    geometric mechanism of Ghosh, Roughgarden and Sundararajan, whose law,
    log-pmf table and sampler follow from the count alone.

    Two shifted windows share one probability tuple, so their distance
    depends only on the shift difference d: the terms summed are the same
    multiset for d and -d (fsum is correctly rounded, so their order cannot
    matter), and every |d| > 2t gives disjoint windows of radius t.
    ``law_distance`` therefore keeps one entry per (min(|d|, 2t + 1),
    mass_tol) on the instance.
    """

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.geom = GeomParams(epsilon)
        self._distances: dict[tuple[int, float], Interval] = {}

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
        # the closed form holds beyond the truncated window
        ln, eps = self.geom.log_norm, self.epsilon
        return tuple(ln - eps * abs(s - key) for s in support)

    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        c = self._counted(x.players)
        return (c + k for k in sample_geoms(self.geom, rng, trials))


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

    @property
    def cache_token(self) -> tuple:
        return (self.name, self.params.budget, self.params.epsilon, self.params.n)

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

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        return tuple(
            i
            for i, p in enumerate(x.players)
            if self.counts(p.valuation) or (self.pay_all_zero_bits and p.bit == 0)
        )


def _rescaled_count(n: int, m: int, k: int) -> int:
    """round_half_even(n*m/k) in integer arithmetic."""
    q, r = divmod(n * m, k)
    return q + 1 if 2 * r > k or (2 * r == k and q % 2) else q


@lru_cache(maxsize=None)
def _subsample_law(n: int, k: int, ones: int) -> CountDistribution:
    """Exact law of round_half_even(n*m/k) with m hypergeometric(n, ones, k)."""
    total = math.comb(n, k)
    zeros = n - ones
    lo = max(0, k - zeros)
    # comb(ones, m) and comb(zeros, k - m), stepped exactly from m to m + 1
    c_ones, c_zeros = math.comb(ones, lo), math.comb(zeros, k - lo)
    atoms: dict[int, float] = {}
    for m in range(lo, min(k, ones) + 1):
        # int true division is correctly rounded, as float(Fraction(...)) is
        weight = c_ones * c_zeros / total
        count = _rescaled_count(n, m, k)
        atoms[count] = atoms.get(count, 0.0) + weight
        c_ones = c_ones * (ones - m) // (m + 1)
        c_zeros = c_zeros * (k - m) // (zeros - k + m + 1)
    return CountDistribution.from_atoms(atoms, 0.0)


class SubsampleMechanism(CountedMechanism):
    """Pay everyone the flat amount, average the bits of a uniform size-k
    subset, and publish the rescaled (rounded half-even) count. Declarations
    are ignored entirely, which is what makes it trivially truthful."""

    def __init__(self, params: SubsampleParams):
        self.params = params
        self.name = "subsample"
        self.player_count = params.n

    @property
    def cache_token(self) -> tuple:
        p = self.params
        return (self.name, p.flat_pay, p.sample_size, p.n, p.distinguishability_budget)

    @property
    def distinguishability_budget(self) -> float:
        return self.params.distinguishability_budget

    def pay(self, bit: int, valuation: float) -> float:
        return self.params.flat_pay

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return _subsample_law(self.params.n, self.params.sample_size, key)

    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        n, k = self.params.n, self.params.sample_size
        bits, population = x.bits, range(n)
        for _ in range(trials):
            m = sum([bits[j] for j in rng.sample(population, k)])
            yield _rescaled_count(n, m, k)


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

    @property
    def cache_token(self) -> tuple:
        return (self.name, self.epsilon, self.player_count)

    def pay(self, bit: int, valuation: float) -> float:
        return valuation * self.epsilon

    def deviation_valuations(self, x: InputProfile, i: int) -> tuple[float, ...]:
        v = x.players[i].valuation
        return tuple(dict.fromkeys((0.0, v + 1.0, 100.0 * (abs(v) + 1.0), v)))

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        return ()


class ExactSumMechanism(CountedMechanism):
    """Publish the exact bit sum and pay a flat amount (zero by default).
    The canonical counterexample fed to the impossibility audits."""

    def __init__(self, n: int, flat_pay: float = 0.0):
        if not (is_int(n) and n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if not (math.isfinite(flat_pay) and flat_pay >= 0):
            raise ValueError(f"flat_pay must be finite and >= 0, got {flat_pay!r}")
        self.flat_pay = flat_pay
        self.name = "exact_sum"
        self.player_count = n

    @property
    def cache_token(self) -> tuple:
        return (self.name, self.flat_pay, self.player_count)

    def pay(self, bit: int, valuation: float) -> float:
        return self.flat_pay

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return CountDistribution((key,), (1.0,), 0.0)

    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        # the count is exact: no draws
        return repeat(self._counted(x.players), trials)


def alg1(budget: float, epsilon: float, n: int) -> BudgetMechanism:
    return BudgetMechanism(BudgetParams(budget, epsilon, n))


def alg1_prime(budget: float, epsilon: float, n: int) -> BudgetMechanism:
    return BudgetMechanism(BudgetParams(budget, epsilon, n), pay_all_zero_bits=True)


def subsample(flat_pay: float, sample_size: int, n: int, distinguishability_budget: float = math.inf) -> SubsampleMechanism:
    return SubsampleMechanism(SubsampleParams(flat_pay, sample_size, n, distinguishability_budget))


def pay_declared(epsilon: float, n: int) -> PayDeclaredMechanism:
    return PayDeclaredMechanism(epsilon, n)


def exact_sum(n: int, flat_pay: float = 0.0) -> ExactSumMechanism:
    return ExactSumMechanism(n, flat_pay)


def max_zero_valuation_pay(mech: Mechanism) -> float:
    """Max payment the mechanism makes to any player declaring valuation 0,
    over all bit vectors."""
    return mech.max_zero_valuation_pay()
