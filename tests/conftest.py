import math
import random

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

    def _sample_count(self, x, rng: random.Random) -> int:
        return 0

    def candidate_types(self, x, i):
        p = x.players[i]
        return (PlayerType(1 - p.bit, p.valuation), PlayerType(p.bit, p.valuation + 1.0))


def bit_vectors(n):
    for mask in range(2**n):
        yield [(mask >> j) & 1 for j in range(n)]


def profile(bits, valuations) -> InputProfile:
    return InputProfile.from_arrays(bits, valuations)
