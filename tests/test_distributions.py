"""Distribution-layer tests.

The brute-force oracles below are written from the raw pmf formula
proportional to exp(-eps |k|) and never call into the code under test, so
closed forms and truncated constructions are checked against an independent
route.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbuy import distributions
from privbuy.distributions import (
    MAX_WINDOW_ATOMS,
    CountDistribution,
    GeomParams,
    Interval,
    dp_level,
    geom_log_pmf,
    geom_pmf,
    geom_tail,
    sample_geom,
    shifted_geom_dist,
    statistical_distance,
    window_radius,
)

from conftest import oracle_sample_geom

EPS_GRID = (0.1, 0.5, math.log(2.0), 2.0)


# --- oracles ---------------------------------------------------------------

def oracle_pmf(eps, k, radius=200):
    z = sum(math.exp(-eps * abs(j)) for j in range(-radius, radius + 1))
    return math.exp(-eps * abs(k)) / z


def oracle_tail(eps, t, radius=200):
    z = sum(math.exp(-eps * abs(j)) for j in range(-radius, radius + 1))
    return sum(math.exp(-eps * abs(k)) for k in range(-radius, radius + 1) if abs(k) >= t) / z


def closed_pmf(eps, k):
    # independent closed form, for the distance oracle
    a = math.exp(-eps)
    return (1.0 - a) / (1.0 + a) * a ** abs(k)


def oracle_shift_distance(eps, shift, radius=200):
    return 0.5 * sum(
        abs(closed_pmf(eps, k) - closed_pmf(eps, k - shift)) for k in range(-radius, radius + 1)
    )


# --- geom_pmf --------------------------------------------------------------

@pytest.mark.parametrize("eps", EPS_GRID)
def test_pmf_matches_bruteforce(eps):
    g = GeomParams(eps)
    for k in range(-8, 9):
        assert geom_pmf(g, k) == pytest.approx(oracle_pmf(eps, k), abs=1e-10)


def test_pmf_ln2_values():
    # oracle_pmf(ln 2, 0) = 1/3 and +/-1 carry 1/6 each
    g = GeomParams(math.log(2.0))
    assert geom_pmf(g, 0) == pytest.approx(oracle_pmf(math.log(2.0), 0), abs=1e-10)
    assert geom_pmf(g, 0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert geom_pmf(g, 1) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert geom_pmf(g, -1) == pytest.approx(1.0 / 6.0, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=4.0, allow_nan=False), st.integers(-300, 300))
def test_pmf_symmetry(eps, k):
    g = GeomParams(eps)
    assert geom_pmf(g, k) == geom_pmf(g, -k)


def test_geom_params_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            GeomParams(bad)
    # exp(-eps) rounds to 0 from about 745.14: ln a, which every window and
    # sampler reads, would be -inf
    for big in (746.0, 1e308):
        with pytest.raises(ValueError, match="too large: exp"):
            GeomParams(big)
    g = GeomParams(745.0)
    assert g.alpha > 0.0 and window_radius(g, 1e-12) == 0


# --- geom_tail -------------------------------------------------------------

def test_tail_ln2_values():
    g = GeomParams(math.log(2.0))
    assert geom_tail(g, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert geom_tail(g, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("t", (1, 2, 4, 7))
def test_tail_matches_bruteforce(eps, t):
    # radius 2000 keeps the oracle's own truncation below 1e-12 even at eps=0.1
    assert geom_tail(GeomParams(eps), t) == pytest.approx(oracle_tail(eps, t, radius=2000), abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_tail_below_exponential_bound(eps):
    g = GeomParams(eps)
    for t in range(1, 30):
        assert geom_tail(g, t) < 2.0 * math.exp(-eps * t)


@pytest.mark.parametrize("eps, t", [(40.0, 1), (100.0, 1), (1.0, 800)])
def test_tail_where_the_exponential_bound_rounds_away(eps, t):
    # 1 + a rounds to 1, or both sides underflow: the bound no longer holds
    # in floats, and the closed form is still the answer
    a = math.exp(-eps)
    assert geom_tail(GeomParams(eps), t) == pytest.approx(2.0 * a**t / (1.0 + a))


def test_tail_rejects_t_below_one():
    with pytest.raises(ValueError):
        geom_tail(GeomParams(1.0), 0)


# --- shifted_geom_dist -----------------------------------------------------

def test_window_example_half_tolerance():
    # excluded mass at radius 1 is 2 (1/2)^2 / (3/2) = 1/3 <= 0.5, radius 0 leaves 2/3
    d = shifted_geom_dist(GeomParams(math.log(2.0)), 0, 0.5)
    assert d.support == (-1, 0, 1)
    assert d.probs[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert d.probs[0] == d.probs[2] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert d.truncation_mass == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_window_radius_at_default_tolerance():
    # smallest t with (4/3) 2^-(t+1) <= 1e-12 is t = 40
    assert window_radius(GeomParams(math.log(2.0)), 1e-12) == 40


def test_shift_translates_atoms():
    g = GeomParams(0.7)
    base = shifted_geom_dist(g, 0, 1e-9)
    moved = shifted_geom_dist(g, 5, 1e-9)
    assert moved.truncation_mass == base.truncation_mass
    assert moved.support == tuple(k + 5 for k in base.support)
    assert moved.probs == base.probs


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("tol", (1e-3, 1e-12, 1e-15))
def test_shifted_window_equals_direct_construction(eps, tol):
    g = GeomParams(eps)
    t = window_radius(g, tol)
    for shift in (-1000, -7, -1, 1, 3, 250):
        # shifted laws reuse the unshifted window; start from an empty cache
        # so the shifted law is the one that builds it
        shifted_geom_dist.cache_clear()
        d = shifted_geom_dist(g, shift, tol)
        assert d.support == tuple(range(shift - t, shift + t + 1))
        assert d.probs == tuple(geom_pmf(g, k - shift) for k in d.support)
        assert d.truncation_mass == 2.0 * g.alpha ** (t + 1) / (1.0 + g.alpha)


@given(
    st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    st.integers(-20, 20),
    st.floats(min_value=1e-14, max_value=0.3),
)
@settings(deadline=None, max_examples=60)
def test_mass_invariant(eps, shift, tol):
    d = shifted_geom_dist(GeomParams(eps), shift, tol)
    assert abs(math.fsum(d.probs) + d.truncation_mass - 1.0) <= 1e-12
    assert d.truncation_mass <= tol
    assert all(p >= 0 for p in d.probs)


def test_count_distribution_validation():
    with pytest.raises(ValueError):
        CountDistribution((0, 1), (0.5,), 0.0)
    with pytest.raises(ValueError):
        CountDistribution((1, 0), (0.5, 0.5), 0.0)
    with pytest.raises(ValueError):
        CountDistribution((0,), (0.5,), 0.0)  # mass deficit
    with pytest.raises(ValueError):
        CountDistribution((0,), (1.5,), -0.5)


@pytest.mark.parametrize(
    "support,probs",
    [
        ((0, 0), (0.5, 0.5)),  # repeated atom
        ((0, 1, 2), (0.75, -0.25, 0.5)),  # negative atom inside
        ((0, 1, 2), (-0.25, 0.75, 0.5)),  # negative atom first
        ((0, 1, 2), (math.nan, 0.5, 0.5)),
        ((0, 1, 2), (0.5, math.nan, 0.5)),
        ((0, 1, 2), (math.nan, -0.5, 1.5)),
    ],
)
def test_count_distribution_rejects_bad_atoms(support, probs):
    with pytest.raises(ValueError):
        CountDistribution(support, probs, 0.0)


def test_count_distribution_accepts_empty_and_zero_atoms():
    assert CountDistribution((), (), 1.0).truncation_mass == 1.0
    assert CountDistribution((-3, 5), (0.0, 1.0), 0.0).prob(5) == 1.0


def test_count_distribution_roundtrip():
    d = shifted_geom_dist(GeomParams(0.5), 3, 1e-6)
    again = CountDistribution(d.support, d.probs, d.truncation_mass)
    assert again == d
    assert hash(again) == hash(d)
    assert again != shifted_geom_dist(GeomParams(0.5), 4, 1e-6)


# --- statistical_distance --------------------------------------------------

def test_distance_identical():
    d = shifted_geom_dist(GeomParams(0.5), 2)
    dist = statistical_distance(d, d)
    assert dist.lo == 0.0
    assert dist.hi <= d.truncation_mass


@pytest.mark.parametrize("eps", EPS_GRID)
def test_unit_shift_distance_matches_bruteforce(eps):
    g = GeomParams(eps)
    dist = statistical_distance(shifted_geom_dist(g, 0), shifted_geom_dist(g, 1))
    oracle = oracle_shift_distance(eps, 1)
    assert dist.lo == pytest.approx(oracle, abs=1e-10)
    a = math.exp(-eps)
    assert dist.lo <= (1.0 - a) / (1.0 + a) <= dist.hi


def test_distance_monotone_in_shift():
    g = GeomParams(math.log(2.0))
    base = shifted_geom_dist(g, 0)
    values = [statistical_distance(base, shifted_geom_dist(g, m)).lo for m in range(6)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(deadline=None, max_examples=40)
def test_distance_triangle_inequality(sa, sb, sc):
    g = GeomParams(0.8)
    da, db, dc = (shifted_geom_dist(g, s) for s in (sa, sb, sc))
    ab, bc, ac = statistical_distance(da, db), statistical_distance(db, dc), statistical_distance(da, dc)
    assert ac.lo <= ab.hi + bc.hi + 1e-15


def oracle_distance(d1, d2):
    """The dict/generator formula the distance kernel must reproduce bit for bit."""
    keys = set(d1.support)
    keys.update(d2.support)
    a1, a2 = d1.atoms, d2.atoms
    lo = 0.5 * math.fsum(abs(a1.get(k, 0.0) - a2.get(k, 0.0)) for k in keys)
    return lo, lo + 0.5 * (d1.truncation_mass + d2.truncation_mass)


@st.composite
def count_laws(draw):
    """Laws on integer ranges (overlapping, touching or disjoint ones) and on
    sets with gaps, with zero, tiny and ordinary atoms and some truncation."""
    if draw(st.booleans()):
        start = draw(st.integers(-80, 80))
        support = range(start, start + draw(st.integers(1, 50)))
    else:
        support = sorted(draw(st.sets(st.integers(-80, 80), min_size=1, max_size=40)))
    return _law_on(draw, support)


def _law_on(draw, support):
    """A law on ``support`` with zero, tiny and ordinary atoms and some truncation."""
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e-12), st.floats(1e-6, 1.0)),
            min_size=len(support),
            max_size=len(support),
        )
    )
    weights[0] += 1.0
    trunc = draw(st.sampled_from((0.0, 1e-13, 1e-4)))
    total = math.fsum(weights)
    return CountDistribution(tuple(support), tuple(w * (1.0 - trunc) / total for w in weights), trunc)


@given(count_laws(), count_laws())
@settings(deadline=None, max_examples=300)
def test_distance_equals_dict_formula(d1, d2):
    got = statistical_distance(d1, d2)
    assert (got.lo, got.hi) == oracle_distance(d1, d2)


@st.composite
def sliced_law_pairs(draw):
    """Two laws whose supports are slices of one gapped, strictly increasing
    sequence (overlapping, touching or disjoint ones), as neighbouring
    subsample laws are; or, with ``moved``, a pair whose second support
    drops or shifts one key strictly inside the window both cover."""
    gaps = draw(st.lists(st.integers(1, 4), min_size=2, max_size=40))
    keys = list(itertools.accumulate(gaps, initial=draw(st.integers(-80, 80))))
    moved = draw(st.booleans())
    if moved:
        j = draw(st.integers(1, len(keys) - 2))
        a1, a2 = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
        b1, b2 = draw(st.integers(j + 2, len(keys))), draw(st.integers(j + 2, len(keys)))
    else:
        a1, a2 = draw(st.integers(0, len(keys) - 1)), draw(st.integers(0, len(keys) - 1))
        b1, b2 = draw(st.integers(a1 + 1, len(keys))), draw(st.integers(a2 + 1, len(keys)))
    s2 = keys[a2:b2]
    if moved:
        if keys[j + 1] - keys[j] > 1 and draw(st.booleans()):
            s2[j - a2] += 1
        else:
            del s2[j - a2]
    return _law_on(draw, keys[a1:b1]), _law_on(draw, s2), moved


@given(sliced_law_pairs())
@settings(deadline=None, max_examples=300)
def test_sliced_distance_equals_dict_formula(pair):
    d1, d2, moved = pair
    # a moved key leaves the shared window unaligned: the dict path
    assert (distributions._shared_slices(d1.support, d2.support) is None) == moved
    got = statistical_distance(d1, d2)
    assert (got.lo, got.hi) == oracle_distance(d1, d2)


@given(st.sampled_from(EPS_GRID), st.integers(-300, 300), st.integers(-300, 300), st.sampled_from((1e-3, 1e-12)))
@settings(deadline=None, max_examples=100)
def test_geometric_distance_equals_dict_formula(eps, s1, s2, tol):
    g = GeomParams(eps)
    d1, d2 = shifted_geom_dist(g, s1, tol), shifted_geom_dist(g, s2, 1e-3)
    got = statistical_distance(d1, d2)
    assert (got.lo, got.hi) == oracle_distance(d1, d2)


def test_tightening_mass_tol_shrinks_hi():
    g = GeomParams(0.5)
    tols = (1e-3, 1e-6, 1e-9, 1e-12)
    his = [
        statistical_distance(shifted_geom_dist(g, 0, t), shifted_geom_dist(g, 1, t)).hi
        for t in tols
    ]
    assert all(b <= a for a, b in zip(his, his[1:]))


# --- geom_log_pmf and dp_level ----------------------------------------------

def geom_levels(g, s1, s2, mass_tol=1e-12):
    """dp_level of two shifted geometric laws on the union of their windows."""
    support = sorted(set(shifted_geom_dist(g, s1, mass_tol).support).union(shifted_geom_dist(g, s2, mass_tol).support))
    return dp_level(geom_log_pmf(g, s1, support), geom_log_pmf(g, s2, support))


@pytest.mark.parametrize("eps", EPS_GRID)
def test_geom_log_pmf_is_the_log_of_the_pmf(eps):
    g = GeomParams(eps)
    support = (-9, -1, 0, 2, 3, 40)
    assert geom_log_pmf(g, 3, support) == pytest.approx([math.log(closed_pmf(eps, s - 3)) for s in support], abs=1e-12)
    # beyond every window: the pmf underflows, its logarithm does not
    assert geom_log_pmf(g, 0, (10**6,)) == (g.log_norm - eps * 10**6,)


def test_dp_level_examples():
    g = GeomParams(0.5)
    assert geom_levels(g, 3, 4) == pytest.approx(0.5, abs=1e-9)
    assert geom_levels(g, 0, 2) == pytest.approx(1.0, abs=1e-9)
    assert geom_levels(g, 1, 1) == 0.0
    assert dp_level((), ()) == 0.0


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("m", (1, 2, 3))
def test_dp_level_shift_scaling(eps, m):
    assert geom_levels(GeomParams(eps), 0, m) == pytest.approx(eps * m, abs=1e-9)


@given(st.sampled_from(EPS_GRID + (0.05,)), st.integers(-300, 300), st.integers(-300, 300), st.sampled_from((1e-3, 1e-12)))
@settings(deadline=None, max_examples=100)
def test_geometric_dp_level_is_epsilon_times_the_shift(eps, s1, s2, tol):
    # disjoint windows and coarse truncation included: the rows are exact
    # beyond the window, so no outcome is one-sided
    assert geom_levels(GeomParams(eps), s1, s2, tol) == pytest.approx(eps * abs(s1 - s2), rel=1e-12, abs=1e-12)


def test_dp_level_disjoint_point_masses():
    # point masses at 0 and 1, as rows over the support (0, 1)
    a, b = (0.0, -math.inf), (-math.inf, 0.0)
    assert dp_level(a, b) == dp_level(b, a) == math.inf


def test_dp_level_reads_impossible_outcomes():
    # -inf on one side only is +inf however unlikely the other side is; on
    # both sides it counts as 0
    tiny = math.log(5e-324)
    assert dp_level((tiny, 0.0), (-math.inf, 0.0)) == math.inf
    half, quarter = math.log(0.5), math.log(0.25)
    assert dp_level((-math.inf, half, half), (-math.inf, quarter, math.log(0.75))) == pytest.approx(math.log(2.0))
    assert dp_level((-math.inf,), (-math.inf,)) == 0.0


# --- sampling --------------------------------------------------------------

@pytest.mark.parametrize("eps", EPS_GRID + (0.05, 5.0, 40.0))
@pytest.mark.parametrize("seed", (0, 7, 2024))
def test_batched_sampler_draws_the_one_draw_stream(eps, seed):
    g = GeomParams(eps)
    for trials in (0, 1, 2, 50, 500):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        assert [sample_geom(g, rng_a) for _ in range(trials)] == [oracle_sample_geom(g, rng_b) for _ in range(trials)]
        assert rng_a.getstate() == rng_b.getstate()


@pytest.mark.parametrize("seed", range(20))
def test_sample_geom_is_the_first_batched_draw(seed):
    # a draw takes the oracle's bits and no more, so a batch of draws is
    # the oracle's stream from its first draw on
    g = GeomParams(0.5)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    assert sample_geom(g, rng_a) == oracle_sample_geom(g, rng_b)
    assert rng_a.getstate() == rng_b.getstate()


class _StubRng:
    """Returns ``top`` for every 64-bit draw and 1 for every sign bit."""

    def __init__(self, top):
        self.top = top

    def getrandbits(self, k):
        return self.top if k == 64 else 1


@pytest.mark.parametrize("eps", (0.05, 0.5, math.log(2.0), 40.0))
def test_sampler_reads_a_draw_that_rounds_to_one_as_the_largest_double_below_it(eps):
    # 2^64 - 1 over 2^64 rounds to 1.0, whose tail 1 - u = 0 has no log;
    # 2^64 - 2048 over 2^64 is exactly 1 - 2^-53
    assert (2**64 - 1) / 2.0**64 == 1.0 and 1.0 - (2**64 - 2048) / 2.0**64 == 2.0**-53
    g = GeomParams(eps)
    want = oracle_sample_geom(g, _StubRng(2**64 - 2048))
    assert sample_geom(g, _StubRng(2**64 - 1)) == want

def test_sampler_deterministic_given_seed():
    g = GeomParams(0.5)
    draws1 = [sample_geom(g, random.Random(7)) for _ in range(1)]
    rng_a, rng_b = random.Random(123), random.Random(123)
    assert [sample_geom(g, rng_a) for _ in range(50)] == [sample_geom(g, rng_b) for _ in range(50)]
    assert draws1 == [sample_geom(g, random.Random(7))]


@pytest.mark.parametrize("eps", (0.5, math.log(2.0)))
def test_sampler_frequencies_match_pmf(eps):
    g = GeomParams(eps)
    rng = random.Random(2024)
    trials = 40000
    counts = {}
    for _ in range(trials):
        k = sample_geom(g, rng)
        counts[k] = counts.get(k, 0) + 1
    for k in range(-3, 4):
        p = geom_pmf(g, k)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(k, 0) / trials - p) <= 3.0 * sigma


def test_window_cap_rejects_huge_windows_without_building_them():
    # about 5.5e11 atoms; the radius comes from the closed form alone
    with pytest.raises(ValueError, match="cap"):
        window_radius(GeomParams(1e-10), 1e-12)
    with pytest.raises(ValueError, match="cap"):
        shifted_geom_dist(GeomParams(1e-15), 3, 1e-12)


def test_window_cap_is_exact(monkeypatch):
    g = GeomParams(0.05)
    atoms = 2 * window_radius(g, 1e-12) + 1
    monkeypatch.setattr(distributions, "MAX_WINDOW_ATOMS", atoms)
    assert 2 * window_radius(g, 1e-12) + 1 == atoms
    monkeypatch.setattr(distributions, "MAX_WINDOW_ATOMS", atoms - 1)
    with pytest.raises(ValueError, match="cap"):
        window_radius(g, 1e-12)


def test_bundled_workload_windows_fit_the_cap():
    # The largest windows the test suite builds (epsilon 0.05 at mass_tol
    # down to 1e-14) and the geometric jobs of the audit_scale benchmark
    # (mass_tol 1e-12) stay more than 700 times under the cap.
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    epsilons = {args[1] for _, _, (name, args), _, _ in workloads.audit_jobs() if name == "alg1"}
    assert epsilons == {0.05, math.log(2.0)}
    windows = [(eps, 1e-12) for eps in epsilons] + [(0.05, 1e-14), (0.1, 1e-15)]
    sizes = [len(shifted_geom_dist(GeomParams(eps), 0, tol).support) for eps, tol in windows]
    assert max(sizes) == 1291
    assert max(sizes) * 700 < MAX_WINDOW_ATOMS


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    assert Interval(1.0, 3.0).scale(-2.0) == Interval(-6.0, -2.0)
