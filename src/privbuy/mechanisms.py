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

    @property
    def theta(self) -> float:
        return self.budget / (2.0 * self.epsilon * self.n)

    @property
    def per_player_pay(self) -> float:
        return self.budget / self.n

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


def _keyed_output_dist(mech: Mechanism, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
    """``output_dist`` of the mechanisms that build each law from its key."""
    return mech.key_law(mech.law_key(x, mass_tol), mass_tol)


class ShiftedGeometricMechanism(Mechanism):
    """Publish ``shift(x)`` plus two-sided geometric noise at ``epsilon``:
    the geometric mechanism of Ghosh, Roughgarden and Sundararajan, whose
    law, log-pmf table and sampler follow from the shift alone.

    The law key is the shift. Two shifted windows share one probability
    tuple, so their distance depends only on the shift difference d: the
    terms summed are the same multiset for d and -d (fsum is correctly
    rounded, so their order cannot matter), and every |d| > 2t gives
    disjoint windows of radius t. ``law_distance`` therefore keeps one
    entry per (min(|d|, 2t + 1), mass_tol) on the instance.
    """

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.geom = GeomParams(epsilon)
        self._distances: dict[tuple[int, float], Interval] = {}

    @abstractmethod
    def shift(self, x: InputProfile) -> int:
        """The count the noise is centred on."""

    def law_key(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> int:
        self.require_profile(x)
        return self.shift(x)

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return shifted_geom_dist(self.geom, key, mass_tol)

    output_dist = _keyed_output_dist

    def law_distance(self, k1: int, k2: int, mass_tol: float = DEFAULT_MASS_TOL) -> Interval:
        base = shifted_geom_dist(self.geom, 0, mass_tol)
        d = min(abs(k1 - k2), len(base.support))
        hit = self._distances.get((d, mass_tol))
        if hit is None:
            hit = self._distances[d, mass_tol] = statistical_distance(base, shifted_geom_dist(self.geom, d, mass_tol))
        return hit

    def log_pmf_table(self, x: InputProfile, support) -> tuple[float, ...]:
        self.require_profile(x)
        c = self.shift(x)
        ln, eps = self.geom.log_norm, self.epsilon
        return tuple(ln - eps * abs(s - c) for s in support)

    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        c = self.shift(x)
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

    @property
    def cache_token(self) -> tuple:
        return (self.name, self.params.budget, self.params.epsilon, self.params.n)

    def counted_bit_sum(self, x: InputProfile) -> int:
        """Sum of b'_i where b'_i = b_i if the player qualifies, else 0."""
        return self._counted(x.players)

    def _counted(self, players) -> int:
        # BudgetParams.qualifies, hoisted: same operands, same floats
        two_eps, share = 2.0 * self.params.epsilon, self.params.budget / self.params.n
        return sum([p.bit for p in players if two_eps * p.valuation <= share])

    shift = counted_bit_sum

    def others_key(self, x: InputProfile, i: int) -> int:
        # laws read the others only through their counted bits; candidates
        # read only player i, and no payment reads another player
        return self._counted(x.players[:i] + x.players[i + 1 :])

    def declare(self, x: InputProfile, i: int, values, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
        # the key is the counted shift, and one threshold test settles each
        # declaration: the others are counted once, and no one else's pay moves
        _require_player(self, x, i)
        two_eps, share = 2.0 * self.params.epsilon, self.params.budget / self.params.n
        others, bit = self.others_key(x, i), x.players[i].bit
        counted = (share, others + bit)
        uncounted = (share if self.pay_all_zero_bits and bit == 0 else 0.0, others)
        return [counted if two_eps * v <= share else uncounted for v in map(finite_valuation, values)]

    def neighbor_law_keys(
        self, x: InputProfile, i: int, relation: NeighborRelation, mass_tol: float = DEFAULT_MASS_TOL
    ) -> list[tuple[PlayerType, int]]:
        # the others are counted once, and one threshold test keys each candidate
        _require_player(self, x, i)
        two_eps, share = 2.0 * self.params.epsilon, self.params.budget / self.params.n
        others = self.others_key(x, i)
        return [
            (c, others + c.bit if two_eps * c.valuation <= share else others)
            for c in admissible_candidates(x, i, relation, self.candidate_types(x, i))
        ]

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        two_eps, share = 2.0 * self.params.epsilon, self.params.budget / self.params.n
        zero_bits = self.pay_all_zero_bits
        return tuple(
            [
                share if two_eps * p.valuation <= share or (zero_bits and p.bit == 0) else 0.0
                for p in x.players
            ]
        )

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        p = x.players[i]
        if self.params.qualifies(p.valuation) or (self.pay_all_zero_bits and p.bit == 0):
            return self.params.per_player_pay
        return 0.0

    def max_zero_valuation_pay(self) -> float:
        # valuation 0 always qualifies (B > 0), whatever the bits
        return self.params.per_player_pay

    def candidate_types(self, x: InputProfile, i: int) -> tuple[PlayerType, ...]:
        # The law and the payments to others depend on player i's type only
        # through "qualifying bit-1 or not". The valuations below put an
        # admissible representative in each class for both relations, for
        # any real v_i (including negative ones).
        v = x.players[i].valuation
        theta = self.params.theta
        vals = dict.fromkeys((0.0, theta, 2.0 * theta, v, min(v, 0.0), max(v, 2.0 * theta)))
        return tuple(PlayerType(b, w) for w in vals for b in (0, 1))

    def deviation_valuations(self, x: InputProfile, i: int) -> tuple[float, ...]:
        theta = self.params.theta
        return tuple(dict.fromkeys((0.0, theta, 2.0 * theta, x.players[i].valuation)))

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        q = self.params.qualifies
        return tuple(
            i
            for i, p in enumerate(x.players)
            if q(p.valuation) or (self.pay_all_zero_bits and p.bit == 0)
        )


def _rescaled_count(n: int, m: int, k: int) -> int:
    """round_half_even(n*m/k) in integer arithmetic."""
    q, r = divmod(n * m, k)
    return q + 1 if 2 * r > k or (2 * r == k and q % 2) else q


def _require_player(mech: Mechanism, x: InputProfile, i: int) -> None:
    mech.require_profile(x)
    if not 0 <= i < x.n:
        raise IndexError(f"player index {i} out of range for n={x.n}")


def _others_bit_sum(mech: Mechanism, x: InputProfile, i: int) -> int:
    """``others_key`` of the mechanisms whose law reads the other players
    only through their bit sum, and whose payments read no other player."""
    return x.bit_sum() - x.players[i].bit


def _bit_sum_key(mech: Mechanism, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> int:
    """``law_key`` of the mechanisms whose law is fixed by the bit sum."""
    mech.require_profile(x)
    return x.bit_sum()


def _bit_sum_neighbor_keys(
    mech: Mechanism, x: InputProfile, i: int, relation: NeighborRelation, mass_tol: float = DEFAULT_MASS_TOL
) -> list[tuple[PlayerType, int]]:
    """``neighbor_law_keys`` of the mechanisms whose law is fixed by the bit
    sum: a candidate's key is the others' bit sum plus its own bit."""
    _require_player(mech, x, i)
    others = _others_bit_sum(mech, x, i)
    return [(c, others + c.bit) for c in admissible_candidates(x, i, relation, mech.candidate_types(x, i))]


def _declare_flat(mech: Mechanism, x: InputProfile, i: int, values, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
    """``declare`` of the mechanisms that pay a flat amount and publish a law
    of the bit sum alone: every declaration gets the same pay and key."""
    _require_player(mech, x, i)
    pay, key = mech.expected_pay(x, i), x.bit_sum()
    return [(pay, key) for _ in map(finite_valuation, values)]


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


class SubsampleMechanism(Mechanism):
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

    law_key = _bit_sum_key

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return _subsample_law(self.params.n, self.params.sample_size, key)

    output_dist = _keyed_output_dist
    neighbor_law_keys = _bit_sum_neighbor_keys

    def log_pmf_table(self, x: InputProfile, support) -> tuple[float, ...]:
        law = self.output_dist(x)
        return tuple(math.log(p) if p > 0.0 else -math.inf for p in map(law.prob, support))

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        return (self.params.flat_pay,) * self.params.n

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        return self.params.flat_pay

    def max_zero_valuation_pay(self) -> float:
        return self.params.flat_pay

    others_key = _others_bit_sum
    declare = _declare_flat

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

    def shift(self, x: InputProfile) -> int:
        return x.bit_sum()

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        return tuple(p.valuation * self.epsilon for p in x.players)

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        return x.players[i].valuation * self.epsilon

    def max_zero_valuation_pay(self) -> float:
        return 0.0

    others_key = _others_bit_sum
    neighbor_law_keys = _bit_sum_neighbor_keys

    def declare(self, x: InputProfile, i: int, values, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
        # the law ignores every valuation; the pay is the declaration times epsilon
        _require_player(self, x, i)
        key, eps = x.bit_sum(), self.epsilon
        return [(v * eps, key) for v in map(finite_valuation, values)]

    def deviation_valuations(self, x: InputProfile, i: int) -> tuple[float, ...]:
        v = x.players[i].valuation
        return tuple(dict.fromkeys((0.0, v + 1.0, 100.0 * (abs(v) + 1.0), v)))

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        return ()


class ExactSumMechanism(Mechanism):
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

    law_key = _bit_sum_key

    def key_law(self, key: int, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        return CountDistribution((key,), (1.0,), 0.0)

    output_dist = _keyed_output_dist
    neighbor_law_keys = _bit_sum_neighbor_keys

    def log_pmf_table(self, x: InputProfile, support) -> tuple[float, ...]:
        self.require_profile(x)
        c = x.bit_sum()
        return tuple(0.0 if s == c else -math.inf for s in support)

    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        self.require_profile(x)
        return (self.flat_pay,) * self.player_count

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        return self.flat_pay

    def max_zero_valuation_pay(self) -> float:
        return self.flat_pay

    others_key = _others_bit_sum
    declare = _declare_flat

    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        # the count is exact: no draws
        return repeat(x.bit_sum(), trials)


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
