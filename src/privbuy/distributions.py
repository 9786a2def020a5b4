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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import lt, sub

# Default certified truncation budget for constructed distributions.
DEFAULT_MASS_TOL = 1e-12

_MASS_INVARIANT_SLOP = 1e-12

# Largest window shifted_geom_dist will build: 2 t + 1 atoms for radius t.
# The tests and benchmark workloads build at most 1,291 (epsilon 0.05 at
# mass_tol 1e-14); epsilon 1e-10 at the default mass_tol would ask for
# about 5.5e11 floats.
MAX_WINDOW_ATOMS = 1_000_000

# Most Monte Carlo draws one accuracy check makes. A draw costs one bisection
# of the law's table: 1,000,000 take about 0.4 s on alg1 and 0.5 s on
# subsample(1, 500, 1000) (2-core x86-64 VM, Python 3.11).
MAX_SAMPLE_TRIALS = 1_000_000


class Interval(namedtuple("Interval", "lo hi")):
    """Closed interval [lo, hi] certifying a real quantity.

    Verdicts must only be claimed from the sound side: use ``hi`` for
    "quantity is small" claims and ``lo`` for "quantity is large" claims.
    A tuple, hashed and compared in C; ``_make`` and ``_replace`` validate.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it too

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
        if math.exp(-eps) == 0.0:
            # the decay factor's logarithm, which windows and samplers read, is -inf
            raise ValueError(f"epsilon {eps!r} is too large: exp(-epsilon) rounds to 0")
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


def geom_log_pmf(g: GeomParams, shift: int, support) -> tuple[float, ...]:
    """ln Pr[shift + noise = s] = ln((1-a)/(1+a)) - eps |s - shift| for each s
    of ``support``: the closed form, exact beyond any truncated window."""
    ln, eps = g.log_norm, g.epsilon
    return tuple(ln - eps * abs(s - shift) for s in support)


def geom_tail(g: GeomParams, t: int) -> float:
    """Pr[|noise| >= t] = 2 a^t / (1+a) for integer t >= 1."""
    if t < 1:
        raise ValueError(f"tail threshold must be >= 1, got {t}")
    a = g.alpha
    return 2.0 * a**t / (1.0 + a)


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

    def prob(self, k: int) -> float:
        return self.atoms.get(k, 0.0)

    @cached_property
    def cdf(self) -> tuple[float, ...]:
        """Running sums of ``probs``: the inverse-CDF table ``sample`` reads."""
        return tuple(accumulate(self.probs))

    def sample(self, rng, trials: int) -> Iterator[int | None]:
        """``trials`` independent counts drawn lazily by table inversion
        (Devroye 1986, ch. III): one ``rng.random()`` u per draw, the first
        atom whose ``cdf`` exceeds u, or None for a u at or past ``cdf[-1]``
        (the truncated tails). ``rng`` is a random.Random."""
        cdf, counts, draw = self.cdf, self.support + (None,), rng.random
        return (counts[bisect_right(cdf, draw())] for _ in repeat(None, trials))


def _tail_index(a: float, one_a: float, log_a: float, m: float) -> int:
    """Smallest t >= 0 with 2 a^{t+1} / (1+a) <= m, for one_a = 1 + a and
    log_a = ln a: a guess from logarithms, nudged against float slop to the
    exact minimizer."""
    target = m * one_a / 2.0
    if target >= a:
        t = 0
    else:
        t = max(0, math.ceil(math.log(target) / log_a) - 1)
    while t > 0 and 2.0 * a**t / one_a <= m:
        t -= 1
    while 2.0 * a ** (t + 1) / one_a > m:
        t += 1
    return t


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
    t = _tail_index(a, 1.0 + a, math.log(a), mass_tol)
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
    overlap = _shared_slices(d1.support, d2.support)
    if overlap is not None:
        # Both supports hold the same keys where they overlap (geometric
        # windows, point masses, neighbouring subsample laws): line the
        # probability tuples up there instead of looking each key up in two
        # dicts. Atoms outside the overlap meet a zero on the other side.
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


def _shared_slices(s1: tuple[int, ...], s2: tuple[int, ...]):
    """Slice bounds (i1, j1, i2, j2) of the window [max first, min last] in
    two strictly increasing supports, when ``s1[i1:j1]`` and ``s2[i2:j2]``
    hold the same keys and so every key the supports share; None when the
    windows differ or a support is empty."""
    if not (s1 and s2):
        return None
    lo, hi = max(s1[0], s2[0]), min(s1[-1], s2[-1])
    i1, j1 = bisect_left(s1, lo), bisect_right(s1, hi)
    i2, j2 = bisect_left(s2, lo), bisect_right(s2, hi)
    return (i1, j1, i2, j2) if s1[i1:j1] == s2[i2:j2] else None


def dp_level(log_p, log_q) -> float:
    """Pure-DP level between two laws given as log-pmf rows over one
    support: the largest |ln p(s) - ln q(s)|. An outcome impossible under
    one law only (-inf on one side) gives +inf; one impossible under both
    gives -inf - -inf, the only NaN (the one value unequal to itself), and
    counts as 0."""
    return max((abs(r) for r in map(sub, log_p, log_q) if r == r), default=0.0)


def sample_geom(g: GeomParams, rng) -> int:
    """Draw one noise value: inverse-CDF magnitude on a 64-bit uniform, then
    an independent fair sign bit when the magnitude is nonzero.

    This is an exact inverse-CDF over the two-sided pmf and is deterministic
    given the generator state.
    """
    a = g.alpha
    # in [0, 1]: the top 1,024 of the 2^64 draws round to 1.0, whose 1 - u
    # of 0 is read as 2^-53, the 1 - u of the largest double below 1; every
    # other 1 - u is exact and at least 2^-53
    u = rng.getrandbits(64) / 2.0**64
    # magnitude: smallest k >= 0 with CDF(k) = 1 - 2 a^{k+1}/(1+a) >= u
    k = _tail_index(a, 1.0 + a, math.log(a), 1.0 - u or 2.0**-53)
    return -k if k and rng.getrandbits(1) else k
