import math

from privbuy.core import InputProfile, Mechanism, PlayerType, admissible_candidates
from privbuy.distributions import CountDistribution


class ConstantMechanism(Mechanism):
    """Degenerate mechanism: always outputs 0, pays nothing. Useful as the
    trivial member that survives every audit chain but has no accuracy."""

    def __init__(self, n: int):
        self.name = "constant"
        self.player_count = n

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((0,), (1.0,), 0.0)

    def pay_vector(self, x):
        self.require_profile(x)
        return (0.0,) * self.player_count

    def candidate_types(self, x, i):
        p = x.players[i]
        return (PlayerType(1 - p.bit, p.valuation), PlayerType(p.bit, p.valuation + 1.0))


class PointMass(ConstantMechanism):
    """Publishes the bit sum (or 0 with ``constant``) but stores only
    1 - slack of its mass there; with ``alone``, no player has a candidate
    neighbour, so nothing is ever distinguishable."""

    def __init__(self, n, slack=0.0, constant=False, alone=True):
        super().__init__(n)
        self.slack, self.constant, self.alone = slack, constant, alone

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        at = 0 if self.constant else x.bit_sum()
        return CountDistribution((at,), (1.0 - self.slack,), self.slack)

    def candidate_types(self, x, i):
        return () if self.alone else super().candidate_types(x, i)


class SwapPayMechanism(Mechanism):
    """Two players, the exact bit sum as a point mass, and each player paid
    the other's declared valuation: a declaration can leave the law alone
    and still move the other player's pay."""

    name = "swap_pay"
    player_count = 2

    def output_dist(self, x, mass_tol=1e-12):
        self.require_profile(x)
        return CountDistribution((x.bit_sum(),), (1.0,), 0.0)

    def pay_vector(self, x):
        self.require_profile(x)
        return (x.players[1].valuation, x.players[0].valuation)


def bit_vectors(n):
    for mask in range(2**n):
        yield [(mask >> j) & 1 for j in range(n)]


def profile(bits, valuations) -> InputProfile:
    return InputProfile.from_arrays(bits, valuations)


def max_zero_valuation_pay_scan(mech):
    """The most ``mech`` pays any player declaring valuation 0, over all 2^n
    bit vectors: the oracle for the closed forms and the general audit's P."""
    zeros = [0.0] * mech.player_count
    return max(max(mech.pay_vector(profile(bits, zeros))) for bits in bit_vectors(mech.player_count))


def chain_inputs(chain):
    """The hybrids a ``HybridChain`` stands for, as whole profiles: its
    start, then each move applied in turn. O(n^2): the reference expansion
    that the audits' compact chains are checked against."""
    out = [chain.start]
    for i, t in chain.moves:
        out.append(out[-1].with_player(i, t))
    return tuple(out)


def chain_probes(chain):
    """Hybrid k with move k's player at the chain's ``probe``, for each k;
    () when the chain has no probe type (its probes are hybrids)."""
    if chain.probe is None:
        return ()
    return tuple([x.with_player(i, chain.probe) for x, (i, _) in zip(chain_inputs(chain), chain.moves)])


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
