import math
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from privbuy.core import (
    InputProfile,
    NeighborRelation,
    PlayerType,
    admissible_candidates,
    monotonically_related,
)

GEN, MON = NeighborRelation.GENERAL, NeighborRelation.MONOTONIC

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
types = st.builds(PlayerType, st.integers(0, 1), finite_vals)


def test_player_type_validation():
    with pytest.raises(ValueError):
        PlayerType(2, 0.0)
    with pytest.raises(ValueError):
        PlayerType(0, math.nan)
    with pytest.raises(ValueError):
        PlayerType(1, math.inf)
    assert PlayerType(1, -3.0).valuation == -3.0  # negative valuations allowed
    # JSON booleans and strings are not bits or valuations, though
    # True == 1 and float("2.5") == 2.5
    for bit, valuation in ((True, 0.0), (False, 0.0), (1.0, 0.0), (1, True), (0, "2.5")):
        with pytest.raises(ValueError):
            PlayerType(bit, valuation)


def test_monotonically_related_cases():
    assert monotonically_related(PlayerType(0, 2.0), PlayerType(1, 3.0))
    assert not monotonically_related(PlayerType(0, 5.0), PlayerType(0, 5.0))
    # bit-1 side must carry the weakly larger valuation: 2.0 >= 3.0 fails
    assert not monotonically_related(PlayerType(1, 2.0), PlayerType(0, 3.0))
    assert monotonically_related(PlayerType(1, 3.0), PlayerType(0, 3.0))  # ties included


@given(types, types)
def test_monotonic_symmetry(a, c):
    assert monotonically_related(a, c) == monotonically_related(c, a)


@given(types, types)
def test_monotonic_implies_general(a, c):
    if MON.admits(a, c):
        assert GEN.admits(a, c)


def test_profile_basics():
    x = InputProfile.from_arrays([1, 0], [5.0, 2.0])
    assert x.n == 2 and x.bits == (1, 0) and x.valuations == (5.0, 2.0)
    assert x.bit_sum() == 1
    y = x.with_valuation(0, 7.0)
    assert y.players[0] == PlayerType(1, 7.0) and y.players[1] == x.players[1]
    assert x.players[0].valuation == 5.0  # original untouched
    with pytest.raises(ValueError):
        InputProfile(())
    with pytest.raises(IndexError):
        x.with_player(2, PlayerType(0, 0.0))


def test_profile_serialization_roundtrip():
    x = InputProfile.from_arrays([0, 1, 1], [0.0, -2.5, 11.0])
    d = x.to_json_dict()
    assert list(d) == ["bits", "valuations"]  # canonical field order
    assert InputProfile.from_json_dict(d) == x


def test_neighbors_general_excludes_unchanged():
    x = InputProfile.from_arrays([1], [5.0])
    got = admissible_candidates(x, 0, GEN, [PlayerType(0, 0.0), PlayerType(1, 5.0)])
    assert got == [PlayerType(0, 0.0)]


def test_neighbors_monotonic_filters():
    x = InputProfile.from_arrays([1], [5.0])
    # (0, 9) is not monotonically related to (1, 5) since 9 <= 5 fails
    got = admissible_candidates(x, 0, MON, [PlayerType(0, 0.0), PlayerType(0, 9.0)])
    assert got == [PlayerType(0, 0.0)]


def test_neighbors_monotonic_second_player():
    x = InputProfile.from_arrays([0, 1], [3.0, 1.0])
    got = admissible_candidates(x, 1, MON, [PlayerType(0, 0.0), PlayerType(0, 1.0), PlayerType(0, 0.0)])
    assert got == [PlayerType(0, 0.0), PlayerType(0, 1.0)]  # in order, duplicates dropped


def test_neighbors_index_out_of_range():
    x = InputProfile.from_arrays([0], [0.0])
    with pytest.raises(IndexError):
        admissible_candidates(x, 1, GEN, [PlayerType(1, 0.0)])


@given(st.lists(types, min_size=1, max_size=6, unique=True))
def test_monotonic_subset_of_general(cands):
    x = InputProfile.from_arrays([1, 0], [2.0, -1.0])
    for i in range(2):
        mono = admissible_candidates(x, i, MON, cands)
        gen = admissible_candidates(x, i, GEN, cands)
        assert set(mono) <= set(gen)


def test_monotonic_graph_diameter_at_most_three():
    # over any finite valuation grid, every pair of types is linked by at
    # most 3 monotonic-relation hops
    grid = [PlayerType(b, v) for b in (0, 1) for v in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    for start in grid:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in grid:
                if nxt not in seen and monotonically_related(cur, nxt):
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        assert set(seen) == set(grid)
        assert max(seen.values()) <= 3
