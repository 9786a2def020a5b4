"""PlayerType, Interval and CheckResult against frozen-dataclass references.

The three records are namedtuple subclasses. Each reference below is the
frozen dataclass the record replaced, kept here as an oracle: a record must
accept and refuse what its reference does, with the same message, and equal
another record exactly when their references are equal, with the same hash,
repr and str. The references carry the records' own names, so the reprs
compare as they stand.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privbuy import core, distributions, verifiers
from privbuy.core import finite_valuation


@dataclass(frozen=True)
class PlayerType:
    bit: int
    valuation: float

    def __post_init__(self):
        if type(self.bit) is not int or self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")
        object.__setattr__(self, "valuation", finite_valuation(self.valuation))

    def __str__(self) -> str:
        return f"({self.bit}, {self.valuation:g})"


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __str__(self) -> str:
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


@dataclass(frozen=True)
class CheckResult:
    check: str
    mechanism: str
    profile: str
    player: Optional[int]
    verdict: str
    margin: float
    witness: str = ""


# small pools, so two draws are often equal; -0.0 == 0.0 and 1 == 1.0 == True
floats = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e300, math.inf, -math.inf, math.nan]), st.floats())
# a dataclass compares a NaN field to itself by identity up to Python 3.12
# and by == from 3.13, so the CheckResult reference is drawn without NaN
margins = st.one_of(st.sampled_from([0.0, -0.0, 0.5, math.inf, -math.inf]), st.floats(allow_nan=False))
valuations = st.one_of(floats, st.sampled_from([1, 2**1100, True, "2.5", None]))
bits = st.sampled_from([0, 1, 2, -1, True, False, 1.0, None, "1"])
endpoints = st.one_of(floats, st.integers(-2, 2), st.sampled_from(["0", None]))
check_fields = st.tuples(
    st.sampled_from(["ir", "dp"]),
    st.sampled_from(["alg1", "subsample"]),
    st.sampled_from(["", "p0"]),
    st.one_of(st.none(), st.integers(0, 2), st.booleans()),
    st.sampled_from([verifiers.PASS, verifiers.FAIL]),
    margins,
    st.sampled_from(["", "w"]),
)

CASES = {
    "player_type": (core.PlayerType, PlayerType, st.tuples(bits, valuations)),
    "interval": (distributions.Interval, Interval, st.tuples(endpoints, endpoints)),
    "check_result": (verifiers.CheckResult, CheckResult, check_fields),
}


def build(make, *fields):
    """The record, or the type and message of the error that refused it."""
    try:
        return make(*fields)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def refused(outcome) -> bool:
    return type(outcome) is tuple  # a record is a tuple subclass


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=300)
@given(data=st.data())
def test_record_matches_its_frozen_dataclass_reference(case, data):
    record, reference, fields = CASES[case]
    a, b = data.draw(fields), data.draw(fields)
    ra, rb = build(record, *a), build(record, *b)
    fa, fb = build(reference, *a), build(reference, *b)
    # the same inputs are accepted or refused, with the same message
    assert refused(ra) == refused(fa) and refused(rb) == refused(fb)
    if refused(ra):
        assert ra == fa
    if refused(rb):
        assert rb == fb
    for got, want in ((ra, fa), (rb, fb)):
        if refused(got):
            continue
        assert (repr(got), str(got), hash(got)) == (repr(want), str(want), hash(want))
        # a record is the plain tuple of its fields, in order
        assert got == dataclasses.astuple(want) and got._fields == tuple(f.name for f in dataclasses.fields(want))
        assert got._asdict() == dataclasses.asdict(want)
        for name in got._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(got, name, getattr(got, name, None))
        # _make and _replace refuse what the constructor refuses, and build
        # what it builds
        for other, expected in ((a, ra), (b, rb)):
            assert build(record._make, other) == expected
            assert build(lambda *f: got._replace(**dict(zip(got._fields, f))), *other) == expected
    if not (refused(ra) or refused(rb)):
        assert (ra == rb) == (fa == fb) and (ra != rb) == (fa != fb)
        if fa == fb:
            assert hash(ra) == hash(rb)


def test_check_result_witness_defaults_to_empty():
    fields = ("accuracy", "alg1", "p0", None, verifiers.PASS, 0.25)
    row = verifiers.CheckResult(*fields)
    assert row.witness == "" and row == dataclasses.astuple(CheckResult(*fields)) == fields + ("",)
