"""Exact arithmetic for two-sided geometric count distributions.

Everything here is certificate-grade: distributions carry the exact
probability mass excluded by truncation, statistical distances come back as
[lo, hi] enclosures, and tail probabilities use closed forms rather than
summation. Nothing in this module is ever estimated by sampling.

The two-sided geometric noise variable with parameter eps > 0 takes each
integer k with probability ((1-a)/(1+a)) * a^|k| where a = exp(-eps).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import lt, sub

# Default certified truncation budget for constructed distributions.
DEFAULT_MASS_TOL = 1e-12

# A stored atom at or below this mass cannot be told apart from the other
# distribution's truncated tail, so dp_level skips it instead of declaring a
# support mismatch. Matches the dp_level precondition scale.
SUPPORT_ATOM_TOL = 1e-9

_MASS_INVARIANT_SLOP = 1e-12

# Largest window shifted_geom_dist will build: 2 t + 1 atoms for radius t.
# The tests and benchmark workloads build at most 1,291 (epsilon 0.05 at
# mass_tol 1e-14); epsilon 1e-10 at the default mass_tol would ask for
# about 5.5e11 floats.
MAX_WINDOW_ATOMS = 1_000_000


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] certifying a real quantity.

    Verdicts must only be claimed from the sound side: use ``hi`` for
    "quantity is small" claims and ``lo`` for "quantity is large" claims.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def scale(self, factor: float) -> "Interval":
        """Interval for factor * x given x in self (factor may be negative)."""
        a, b = factor * self.lo, factor * self.hi
        return Interval(min(a, b), max(a, b))

    def __str__(self) -> str:
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


@dataclass(frozen=True)
class GeomParams:
    """Privacy parameter eps > 0 of the two-sided geometric noise."""

    epsilon: float

    def __post_init__(self):
        eps = self.epsilon
        if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {eps!r}")
        if math.exp(-eps) == 1.0:
            # the noise would not decay: no window or sampler exists
            raise ValueError(f"epsilon {eps!r} is too small: exp(-epsilon) rounds to 1")
        object.__setattr__(self, "epsilon", float(eps))

    @cached_property
    def alpha(self) -> float:
        """Decay factor a = exp(-eps)."""
        return math.exp(-self.epsilon)

    @cached_property
    def log_norm(self) -> float:
        """ln of the pmf normalizer (1-a)/(1+a)."""
        return math.log1p(-self.alpha) - math.log1p(self.alpha)


def geom_pmf(g: GeomParams, k: int) -> float:
    """Probability that the noise equals k: ((1-a)/(1+a)) * a^|k|."""
    a = g.alpha
    return (1.0 - a) / (1.0 + a) * a ** abs(k)


def geom_tail(g: GeomParams, t: int) -> float:
    """Pr[|noise| >= t] = 2 a^t / (1+a) for integer t >= 1.

    Always strictly below the loose exponential bound 2 exp(-eps t), which is
    asserted here because callers compare against that bound.
    """
    if t < 1:
        raise ValueError(f"tail threshold must be >= 1, got {t}")
    a = g.alpha
    val = 2.0 * a**t / (1.0 + a)
    assert val < 2.0 * math.exp(-g.epsilon * t)
    return val


@dataclass(frozen=True)
class CountDistribution:
    """Distribution of a published integer count, with certified truncation.

    ``support`` is strictly increasing; ``probs[i]`` is the exact probability
    of ``support[i]``. ``truncation_mass`` is a certified upper bound on the
    probability of everything outside the stored support, so that
    sum(probs) + truncation_mass == 1 up to float round-off.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]
    truncation_mass: float

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs must have equal length")
        if not all(map(lt, self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if not min(self.probs, default=0.0) >= 0.0:
            raise ValueError("atom probabilities must be >= 0")
        if self.truncation_mass < 0.0:
            raise ValueError("truncation_mass must be >= 0")
        total = math.fsum(self.probs) + self.truncation_mass
        # written so that a NaN atom fails too
        if not abs(total - 1.0) <= _MASS_INVARIANT_SLOP:
            raise ValueError(f"total mass {total} deviates from 1 by more than {_MASS_INVARIANT_SLOP}")

    @cached_property
    def atoms(self) -> dict[int, float]:
        return dict(zip(self.support, self.probs))

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        """ln of each atom, -inf for a zero atom."""
        return tuple([math.log(p) if p > 0.0 else -math.inf for p in self.probs])

    def prob(self, k: int) -> float:
        return self.atoms.get(k, 0.0)

    @classmethod
    def from_atoms(cls, atoms: dict[int, float], truncation_mass: float = 0.0) -> "CountDistribution":
        ks = tuple(sorted(atoms))
        return cls(ks, tuple(atoms[k] for k in ks), truncation_mass)


def window_radius(g: GeomParams, mass_tol: float) -> int:
    """Smallest t >= 0 whose symmetric window leaves out mass <= mass_tol.

    The excluded mass of a radius-t window is exactly 2 a^{t+1} / (1+a).
    Raises ``ValueError`` when the window would have more than
    ``MAX_WINDOW_ATOMS`` atoms; t comes from the closed form, so nothing
    of that size is ever built.
    """
    if not (0.0 < mass_tol < 1.0):
        raise ValueError(f"mass_tol must be in (0, 1), got {mass_tol}")
    a = g.alpha
    target = mass_tol * (1.0 + a) / 2.0
    if target >= a:
        t = 0
    else:
        t = max(0, math.ceil(math.log(target) / math.log(a)) - 1)
    # float slop: nudge to the exact minimizer
    while t > 0 and 2.0 * a**t / (1.0 + a) <= mass_tol:
        t -= 1
    while 2.0 * a ** (t + 1) / (1.0 + a) > mass_tol:
        t += 1
    if 2 * t + 1 > MAX_WINDOW_ATOMS:
        raise ValueError(
            f"epsilon {g.epsilon!r} at mass_tol {mass_tol!r} needs a window of {2 * t + 1} atoms, "
            f"above the cap of {MAX_WINDOW_ATOMS}; raise epsilon or mass_tol"
        )
    return t


@lru_cache(maxsize=None)
def shifted_geom_dist(g: GeomParams, shift: int = 0, mass_tol: float = DEFAULT_MASS_TOL) -> CountDistribution:
    """Law of shift + noise, truncated to the smallest adequate window.

    The window is symmetric around the shift; truncation_mass is the exact
    excluded tail 2 a^{t+1} / (1+a) for the chosen radius t. Shifted laws
    share the probability tuple of the unshifted one.
    """
    if shift:
        base = shifted_geom_dist(g, 0, mass_tol)
        t = base.support[-1]
        return CountDistribution(tuple(range(shift - t, shift + t + 1)), base.probs, base.truncation_mass)
    t = window_radius(g, mass_tol)
    support = tuple(range(-t, t + 1))
    probs = tuple(geom_pmf(g, k) for k in support)
    trunc = 2.0 * g.alpha ** (t + 1) / (1.0 + g.alpha)
    return CountDistribution(support, probs, trunc)


def statistical_distance(d1: CountDistribution, d2: CountDistribution) -> Interval:
    """Certified enclosure of the total variation distance.

    lo is half the L1 difference over the union of stored supports; hi adds
    half the combined truncation mass. Use hi to certify "close" and lo to
    certify "far".
    """
    overlap = _range_overlap(d1.support, d2.support)
    if overlap is not None:
        # Both supports are integer ranges (every geometric window and point
        # mass): line the probability tuples up on their overlap instead of
        # looking each key up in two dicts. Atoms outside the overlap meet a
        # zero on the other side.
        p1, p2 = d1.probs, d2.probs
        i1, j1, i2, j2 = overlap
        terms = chain(
            map(abs, chain(p1[:i1], p1[j1:], p2[:i2], p2[j2:])),
            map(abs, map(sub, p1[i1:j1], p2[i2:j2])),
        )
    else:
        keys = set(d1.support)
        keys.update(d2.support)
        a1, a2 = d1.atoms, d2.atoms
        terms = map(abs, map(sub, map(a1.get, keys, repeat(0.0)), map(a2.get, keys, repeat(0.0))))
    # fsum is correctly rounded, so neither path's term order can change lo
    lo = 0.5 * math.fsum(terms)
    hi = lo + 0.5 * (d1.truncation_mass + d2.truncation_mass)
    return Interval(lo, hi)


def _is_range(support: tuple[int, ...]) -> bool:
    return bool(support) and support[-1] - support[0] == len(support) - 1


def _range_overlap(s1: tuple[int, ...], s2: tuple[int, ...]):
    """Slice bounds (i1, j1, i2, j2) such that ``s1[i1:j1]`` and
    ``s2[i2:j2]`` are the common keys of two integer-range supports (empty
    when they are disjoint); None when either support is not a range."""
    if not (_is_range(s1) and _is_range(s2)):
        return None
    start = max(s1[0], s2[0])
    stop = max(start, min(s1[-1], s2[-1]) + 1)
    return start - s1[0], stop - s1[0], start - s2[0], stop - s2[0]


def dp_level(d1: CountDistribution, d2: CountDistribution) -> float:
    """Pure-DP level between two near-complete distributions.

    Returns the maximum of |ln(p1(k)/p2(k))| over atoms stored on both
    sides, and +inf when an atom above ``SUPPORT_ATOM_TOL`` is stored on one
    side only (the other side's truncated tail cannot account for it). Atoms
    at or below it that are missing from the other side are within tail
    noise and are skipped.

    Both truncation masses must be <= 1e-9: the log-ratio requires
    near-complete supports to mean anything. For shifted geometrics the
    result equals eps times the shift difference as long as that difference
    stays within the window radius; far beyond it the common atoms only see
    tail-vs-tail ratios.
    """
    for d in (d1, d2):
        if d.truncation_mass > 1e-9:
            raise ValueError(f"dp_level needs truncation_mass <= 1e-9, got {d.truncation_mass}; lower mass_tol")
    overlap = _range_overlap(d1.support, d2.support)
    if overlap is not None and min(d1.probs) > 0.0 and min(d2.probs) > 0.0:
        # Every geometric window and point mass: the common keys are one
        # slice of each side, and every other atom is one-sided.
        p1, p2 = d1.probs, d2.probs
        i1, j1, i2, j2 = overlap
        if max(chain(p1[:i1], p1[j1:], p2[:i2], p2[j2:]), default=0.0) > SUPPORT_ATOM_TOL:
            return math.inf
        return max(map(abs, map(sub, d1.log_probs[i1:j1], d2.log_probs[i2:j2])), default=0.0)
    a1, a2 = d1.atoms, d2.atoms
    keys = set(d1.support)
    keys.update(d2.support)
    best = 0.0
    for k in keys:
        p, q = a1.get(k, 0.0), a2.get(k, 0.0)
        if p > 0.0 and q > 0.0:
            r = abs(math.log(p) - math.log(q))
            if r > best:
                best = r
        elif p <= 0.0 and q <= 0.0:
            continue
        elif max(p, q) > SUPPORT_ATOM_TOL:
            return math.inf
    return best


def sample_geoms(g: GeomParams, rng, trials: int) -> Iterator[int]:
    """Draw ``trials`` noise values, one at a time: inverse-CDF magnitude on
    a 64-bit uniform, then an independent fair sign bit when the magnitude
    is nonzero.

    This is an exact inverse-CDF over the two-sided pmf and is deterministic
    given the generator state; a, 1 + a and ln a are computed once.
    """
    a = g.alpha
    one_a = 1.0 + a
    log_a = math.log(a)
    getrandbits = rng.getrandbits
    for _ in range(trials):
        u = getrandbits(64) / 2.0**64  # in [0, 1)
        # magnitude: smallest k >= 0 with CDF(k) = 1 - 2 a^{k+1}/(1+a) >= u
        target = (1.0 - u) * one_a / 2.0
        if target >= a:
            k = 0
        else:
            k = max(0, math.ceil(math.log(target) / log_a) - 1)
        while k > 0 and 2.0 * a**k / one_a <= 1.0 - u:
            k -= 1
        while 2.0 * a ** (k + 1) / one_a > 1.0 - u:
            k += 1
        yield -k if k and getrandbits(1) else k


def sample_geom(g: GeomParams, rng) -> int:
    """Draw one noise value: the first draw of ``sample_geoms``."""
    return next(sample_geoms(g, rng, 1))
