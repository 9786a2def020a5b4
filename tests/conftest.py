import math
import random
from itertools import repeat

from privbuy.core import InputProfile, Mechanism, PlayerType, admissible_candidates
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

    def pay_vector(self, x):
        self.require_profile(x)
        return (0.0,) * self.player_count

    def _sample_counts(self, x, rng: random.Random, trials: int):
        return repeat(0, trials)

    def candidate_types(self, x, i):
        p = x.players[i]
        return (PlayerType(1 - p.bit, p.valuation), PlayerType(p.bit, p.valuation + 1.0))


class SwapPayMechanism(Mechanism):
    """Two players, the exact bit sum as a point mass, and each player paid
    the other's declared valuation: a declaration can leave the law alone
    and still move the other player's pay."""

    name = "swap_pay"
    player_count = 2
    cache_token = ("swap_pay",)

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((x.bit_sum(),), (1.0,), 0.0)

    def pay_vector(self, x):
        self.require_profile(x)
        return (x.players[1].valuation, x.players[0].valuation)

    def _sample_counts(self, x, rng: random.Random, trials: int):
        return repeat(x.bit_sum(), trials)


def bit_vectors(n):
    for mask in range(2**n):
        yield [(mask >> j) & 1 for j in range(n)]


def profile(bits, valuations) -> InputProfile:
    return InputProfile.from_arrays(bits, valuations)


def neighbor_profiles(mech, x, i, relation, candidates=None):
    """Player i's admissible neighbor profiles, built one by one from
    ``candidates`` (the mechanism's ``candidate_types`` by default): the
    oracle that the keyed neighbor hooks are checked against."""
    if candidates is None:
        candidates = mech.candidate_types(x, i)
    return [x.with_player(i, c) for c in admissible_candidates(x, i, relation, candidates)]


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
