"""Domain types: players, profiles, outcomes, neighbor relations, mechanisms.

All types are immutable values and safe to share. Player indices are
0-based throughout the package.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .distributions import DEFAULT_MASS_TOL, CountDistribution, Interval, statistical_distance

# Largest n whose 2^n bit vectors a scan enumerates; each +2 costs 4x, and
# n = 24 takes about 6 s on a 2-core x86-64 VM.
MAX_SCAN_PLAYERS = 24


def is_int(value) -> bool:
    """An int that is not a bool: bool subclasses int, so a JSON ``true``
    would pass ``isinstance(value, int)`` as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_valuation(value) -> float:
    """``value`` as a float valuation; NaN, +-inf, bools and strings are
    rejected (``float`` would read a JSON ``true`` as 1.0 and ``"2.5"`` as
    2.5)."""
    # the exact-type test first keeps the common float path cheap
    if type(value) is not float and isinstance(value, (bool, str)):
        raise ValueError(f"valuation must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"valuation must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class PlayerType:
    """One player's private information: a data bit and a privacy valuation.

    The bit cannot be falsified, only withheld; the valuation converts
    privacy loss into currency. Negative valuations are allowed (a player
    may want to lose privacy), NaN/inf are not.
    """

    bit: int
    valuation: float

    def __post_init__(self):
        # exactly an int: a JSON true is a bool, and True == 1
        if type(self.bit) is not int or self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")
        object.__setattr__(self, "valuation", finite_valuation(self.valuation))

    def __str__(self) -> str:
        return f"({self.bit}, {self.valuation:g})"


def monotonically_related(a: PlayerType, c: PlayerType) -> bool:
    """Opposite-bit pair where the bit-1 side has the weakly larger valuation.

    Encodes "bit 1 is the sensitive value": a bit-1 player only worries about
    being told apart from bit-0 types with valuations at most their own.
    Symmetric; equal-bit pairs are never related.
    """
    if a.bit == c.bit:
        return False
    one, zero = (a, c) if a.bit == 1 else (c, a)
    return zero.valuation <= one.valuation


class NeighborRelation(Enum):
    GENERAL = "general"
    MONOTONIC = "monotonic"

    def admits(self, current: PlayerType, candidate: PlayerType) -> bool:
        """Whether replacing ``current`` by ``candidate`` forms an admissible
        i-neighbor under this relation (the unchanged type never does)."""
        if self is NeighborRelation.GENERAL:
            return candidate != current
        return monotonically_related(current, candidate)


@dataclass(frozen=True)
class InputProfile:
    """The full game input: an ordered tuple of player types, n >= 1."""

    players: tuple[PlayerType, ...]

    def __post_init__(self):
        players = tuple(self.players)
        if not players:
            raise ValueError("a profile needs at least one player")
        object.__setattr__(self, "players", players)

    @classmethod
    def from_arrays(cls, bits, valuations) -> "InputProfile":
        bits, valuations = list(bits), list(valuations)
        if len(bits) != len(valuations):
            raise ValueError("bits and valuations must have equal length")
        return cls(tuple(PlayerType(b, v) for b, v in zip(bits, valuations)))

    @property
    def n(self) -> int:
        return len(self.players)

    @cached_property
    def bits(self) -> tuple[int, ...]:
        return tuple([p.bit for p in self.players])

    @cached_property
    def valuations(self) -> tuple[float, ...]:
        return tuple([p.valuation for p in self.players])

    def bit_sum(self) -> int:
        # not through ``bits``: on Python < 3.12 a cached_property's first
        # read takes a lock shared by every instance
        return sum([p.bit for p in self.players])

    def with_player(self, i: int, player: PlayerType) -> "InputProfile":
        if not 0 <= i < self.n:
            raise IndexError(f"player index {i} out of range for n={self.n}")
        return InputProfile(self.players[:i] + (player,) + self.players[i + 1 :])

    def with_valuation(self, i: int, valuation: float) -> "InputProfile":
        return self.with_player(i, PlayerType(self.players[i].bit, valuation))

    def to_json_dict(self) -> dict:
        return {"bits": list(self.bits), "valuations": list(self.valuations)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "InputProfile":
        return cls.from_arrays(d["bits"], d["valuations"])

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.players) + ")"


@dataclass(frozen=True)
class Outcome:
    """A realized mechanism outcome: the published count and all payments."""

    count: int
    payments: tuple[float, ...]


def require_scannable(n: int, what: str) -> None:
    """Refuse a scan over all 2^n bit vectors above ``MAX_SCAN_PLAYERS``."""
    if n > MAX_SCAN_PLAYERS:
        raise ValueError(f"{what} scans all 2^n bit vectors; n = {n} is above the cap of {MAX_SCAN_PLAYERS}")


def admissible_candidates(
    x: InputProfile,
    i: int,
    relation: NeighborRelation,
    candidate_types,
) -> list[PlayerType]:
    """The candidate types that form admissible i-neighbors of ``x``, in
    order. Candidates equal to the current type are dropped, as are
    duplicates. With the monotonic relation only monotonically related
    candidates survive. A distribution-complete candidate set makes suprema
    over the (infinite) type space exactly computable."""
    if not 0 <= i < x.n:
        raise IndexError(f"player index {i} out of range for n={x.n}")
    current = x.players[i]
    out, seen = [], set()
    for cand in candidate_types:
        if cand in seen or not relation.admits(current, cand):
            continue
        seen.add(cand)
        out.append(cand)
    return out


class Mechanism(ABC):
    """A mechanism: a randomized published count plus a payment rule.

    Bundled mechanisms have deterministic payments and a count law that is
    exactly representable (a shifted geometric, a scaled hypergeometric, or a
    point mass), so every verifier below works from closed forms.
    ``sample`` exists for Monte Carlo cross-checks only.
    """

    name: str
    player_count: int
    # C of "every player's neighbor distance stays below C/n"; none by default
    distinguishability_budget: float = math.inf

    @property
    @abstractmethod
    def cache_token(self) -> tuple:
        """Hashable identity pinning every parameter the laws depend on."""

    def require_profile(self, x: InputProfile) -> None:
        if x.n != self.player_count:
            raise ValueError(f"profile has {x.n} players, mechanism expects {self.player_count}")

    @abstractmethod
    def output_dist(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        """Exact law of the published count under declarations ``x``."""

    @abstractmethod
    def pay_vector(self, x: InputProfile) -> tuple[float, ...]:
        """Deterministic payments to all players under declarations ``x``."""

    def expected_pay(self, x: InputProfile, i: int) -> float:
        self.require_profile(x)
        return self.pay_vector(x)[i]

    def declare(self, x: InputProfile, i: int, values, mass_tol: float = DEFAULT_MASS_TOL) -> list[tuple]:
        """``(player i's pay, law key)`` for each declaration v in ``values``,
        the other players keeping ``x``. Two declarations have equal keys iff
        they give equal count laws and equal payments to the other players.
        The default builds each declared profile and keys it by its law and
        the others' pays, which is always sound; mechanisms whose law reads
        player i through a smaller statistic return that statistic."""
        out = []
        for v in values:
            y = x.with_valuation(i, v)
            pays = self.pay_vector(y)
            out.append((self.expected_pay(y, i), (self.output_dist(y, mass_tol), pays[:i] + pays[i + 1 :])))
        return out

    def max_zero_valuation_pay(self) -> float:
        """Max payment to any player declaring valuation 0, over all bit
        vectors. Exact 2^n scan, refused above ``MAX_SCAN_PLAYERS``;
        mechanisms with a closed form override it, and tests use this scan
        as their oracle."""
        n = self.player_count
        require_scannable(n, "the zero-valuation pay cap")
        best = -math.inf
        for mask in range(2**n):
            x = InputProfile.from_arrays([(mask >> j) & 1 for j in range(n)], [0.0] * n)
            best = max(best, max(self.pay_vector(x)))
        return best

    @abstractmethod
    def _sample_counts(self, x: InputProfile, rng: random.Random, trials: int) -> Iterator[int]:
        """Counts of ``trials`` independent draws under declarations ``x``
        (already checked), as an iterator that takes from ``rng`` exactly
        what ``trials`` successive one-draw calls would, in the same order."""

    def sample_counts(self, x: InputProfile, rng, trials: int) -> Iterator[int]:
        """Published counts of ``trials`` independent draws, drawn lazily;
        ``rng`` is a seed int or a random.Random."""
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.require_profile(x)
        return self._sample_counts(x, rng, trials)

    def sample(self, x: InputProfile, rng) -> Outcome:
        """Draw one outcome; ``rng`` is a seed int or a random.Random."""
        (count,) = self.sample_counts(x, rng, 1)
        return Outcome(count, self.pay_vector(x))

    def candidate_types(self, x: InputProfile, i: int) -> tuple[PlayerType, ...]:
        """Canonical finite candidate set, distribution-complete for this
        mechanism: every output-law class reachable by changing player i's
        type has an admissible representative here, for both relations.

        The default flips the bit (keeping the valuation, and at valuation
        0) and raises the valuation by 1 at the same bit. It is complete when
        player i's type reaches the law and the other players' payments only
        through their bit; a mechanism that reads valuations there too (as
        the budget mechanism's threshold does) must override it."""
        p = x.players[i]
        return tuple(
            dict.fromkeys(
                (
                    PlayerType(1 - p.bit, p.valuation),
                    PlayerType(1 - p.bit, 0.0),
                    PlayerType(p.bit, p.valuation + 1.0),
                )
            )
        )

    def deviation_valuations(self, x: InputProfile, i: int) -> tuple[float, ...]:
        """Default deviation grid: canonical candidate valuations plus truth."""
        vals = [t.valuation for t in self.candidate_types(x, i)]
        vals.append(x.players[i].valuation)
        return tuple(dict.fromkeys(vals))

    def claimed_truthful_players(self, x: InputProfile) -> tuple[int, ...]:
        """Players for whom this mechanism claims truthfulness."""
        return tuple(range(x.n))

    def law_key(self, x: InputProfile, mass_tol: float = DEFAULT_MASS_TOL):
        """Hashable key of the count law of ``x``: equal keys must mean equal
        laws, so callers settle each distinct key once. The default keys a
        law by itself, which is always sound; mechanisms whose law is fixed
        by a smaller statistic key by that statistic and override the hooks
        below to settle keys without building a profile."""
        return self.output_dist(x, mass_tol)

    def key_law(self, key, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
        """The count law a ``law_key`` stands for."""
        return key

    def log_pmf_table(self, key, support) -> tuple[float, ...]:
        """Exact ln Pr[s] under the law of ``key`` for each count s in
        ``support`` (-inf off the law's support). The default reads the atoms
        of ``key_law(key)``, so it needs a law stored in full; a mechanism
        whose law is truncated overrides it with a closed form."""
        law = self.key_law(key)
        if law.truncation_mass > 0.0:
            raise ValueError(f"{type(self).__name__}.log_pmf_table needs a law stored in full; override it")
        return tuple(math.log(p) if p > 0.0 else -math.inf for p in map(law.prob, support))

    def neighbor_law_keys(
        self, x: InputProfile, i: int, relation: NeighborRelation, mass_tol: float = DEFAULT_MASS_TOL
    ) -> list[tuple[PlayerType, object]]:
        """``(candidate type, law key)`` for each of player i's
        ``admissible_candidates`` among ``candidate_types``, in that order.
        The default builds each neighbor profile and keys its law."""
        cands = admissible_candidates(x, i, relation, self.candidate_types(x, i))
        return [(c, self.law_key(x.with_player(i, c), mass_tol)) for c in cands]

    def law_distance(self, k1, k2, mass_tol: float = DEFAULT_MASS_TOL) -> Interval:
        """Certified total variation distance between the laws of two keys."""
        return statistical_distance(self.key_law(k1, mass_tol), self.key_law(k2, mass_tol))

    def others_key(self, x: InputProfile, i: int):
        """Hashable summary of every player except i. Together with player
        i's type it must fix the count law of ``x`` and of every profile that
        changes only player i, player i's candidate types, and whether
        changing player i moves any other player's payment. The other players
        themselves always do; mechanisms whose laws read them through a
        smaller statistic return that statistic."""
        return x.players[:i] + x.players[i + 1 :]

    def others_pays(self, x: InputProfile, i: int, player: PlayerType):
        """The payments to every player but i when player i's type is
        ``player``, or any value equal for two types iff they pay the others
        alike. The default slices the built profile's ``pay_vector``."""
        pays = self.pay_vector(x.with_player(i, player))
        return pays[:i] + pays[i + 1 :]
