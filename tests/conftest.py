import math
import random
from itertools import repeat

from privbuy.core import InputProfile, Mechanism, PlayerType
from privbuy.distributions import CountDistribution


class ConstantMechanism(Mechanism):
    """Degenerate mechanism: always outputs 0, pays nothing. Useful as the
    trivial member that survives every audit chain but has no accuracy."""

    def __init__(self, n: int):
        self.name = "constant"
        self.player_count = n

    @property
    def cache_token(self):
        return ("constant", self.player_count)

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((0,), (1.0,), 0.0)

    def log_pmf_table(self, x, support):
        return tuple(0.0 if s == 0 else -math.inf for s in support)

    def pay_vector(self, x):
        self.require_profile(x)
        return (0.0,) * self.player_count

    def _sample_counts(self, x, rng: random.Random, trials: int):
        return repeat(0, trials)

    def candidate_types(self, x, i):
        p = x.players[i]
        return (PlayerType(1 - p.bit, p.valuation), PlayerType(p.bit, p.valuation + 1.0))


def bit_vectors(n):
    for mask in range(2**n):
        yield [(mask >> j) & 1 for j in range(n)]


def profile(bits, valuations) -> InputProfile:
    return InputProfile.from_arrays(bits, valuations)


def oracle_sample_geom(g, rng):
    """The one-draw inverse-CDF noise sampler, with a, 1 + a and ln a
    recomputed on every call: the stream the batched samplers must draw."""
    a = g.alpha
    u = rng.getrandbits(64) / 2.0**64
    target = (1.0 - u) * (1.0 + a) / 2.0
    if target >= a:
        k = 0
    else:
        k = max(0, math.ceil(math.log(target) / math.log(a)) - 1)
    while k > 0 and 2.0 * a**k / (1.0 + a) <= 1.0 - u:
        k -= 1
    while 2.0 * a ** (k + 1) / (1.0 + a) > 1.0 - u:
        k += 1
    if k == 0:
        return 0
    return -k if rng.getrandbits(1) else k
