"""The interval analysis ``profiles.enclose`` against the evaluator, and
the closed-form height sups of bump trains against a walk over the
indices."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnum.dsl import parse
from gnum.harness import random_net
from gnum.nets import ConstHeights, DecayHeights, Tier, eval_net, eval_points
from gnum.profiles import enclose, poly_ivl, rat
from gnum.sequences import Geometric, Harmonic, PiSequence

BANDS = ((0.0, 1.0), (1e-3, 2e-3), (1e-6, 1e-5))


def _band_points(a, b):
    """Linear and log points across the band (from 1e-9 for an open
    end at 0), both ends included."""
    lo = max(a, 1e-9)
    return np.unique(np.concatenate([np.linspace(lo, b, 65),
                                     np.geomspace(lo, b, 65)]))


@pytest.mark.parametrize("tier", list(Tier))
def test_enclose_contains_every_value_of_random_nets(tier):
    outside = []
    for seed in range(40):
        for depth in (3, 4, 5):
            net = random_net(seed, tier, depth)
            for a, b in BANDS:
                lo, hi = enclose(net, a, b)
                pts = _band_points(a, b)
                vals = eval_points(net, pts, fill=math.nan).astype(float)
                ok = np.isnan(vals) | ((lo <= vals) & (vals <= hi))
                outside += [(seed, depth, a, b, p, v, lo, hi)
                            for p, v in zip(pts[~ok], vals[~ok])]
    assert not outside, outside[:4]


def test_the_default_band_is_the_unit_interval():
    for seed in range(20):
        net = random_net(seed, Tier.Continuous, 4)
        assert enclose(net) == enclose(net, 0.0, 1.0)


@pytest.mark.parametrize("text", [
    "i*abs(sin(1/eps))", "abs(sin(1/eps)) + i*eps",
    "(1+i)*max(sin(1/eps), 0)", "(2 + i*eps)^2 - 5",
    "(i + eps)*(i - eps) + 3", "(3 + i*eps)*eps - 2*eps"])
def test_complex_values_lie_in_the_disk_on_the_enclosure(text):
    # the disk with diameter [lo, hi]; its radius bounds |net - centre|
    net, _ = parse(text)
    for a, b in BANDS:
        lo, hi = enclose(net, a, b)
        centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for e in _band_points(a, b).tolist():
            assert abs(eval_net(net, e) - centre) <= radius * (1 + 1e-12), \
                (text, a, b, e)


def test_poly_interval_holds_a_scale_term_that_grows():
    # exp(-1/eps)*eps^-5 reaches 21.05 at eps = 0.2, far above exp(-1)
    net, _ = parse("1 - 0.5*exp(-1/eps)*eps^-5")
    v = eval_net(net, 0.2)
    assert v < -9.5
    lo, hi = poly_ivl(rat(net).num)
    assert lo <= v <= hi


_FRACTIONS = st.builds(F, st.integers(-700, 700), st.integers(1, 12))
_SCHEDULES = st.one_of(
    st.just(Harmonic()),
    st.builds(Geometric, st.builds(F, st.integers(1, 15), st.just(16))))


# indices up to 259, where every schedule point (down to 16**-259) is a
# positive float and so every height is defined
@settings(max_examples=300, deadline=None)
@given(slope=_FRACTIONS, offset=_FRACTIONS, schedule=_SCHEDULES,
       j1=st.integers(1, 200), n=st.integers(0, 60))
def test_decay_heights_sup_is_the_walk(slope, offset, schedule, j1, n):
    h = DecayHeights(slope, offset)
    j2 = j1 + n - 1
    walk = max((h.value(schedule, j) for j in range(j1, j2 + 1)),
               default=0.0)
    assert h.sup(schedule, j1, j2) == walk


def test_decay_heights_overflow_once_on_both_power_paths():
    # h_179 takes the log-space path and h_180 the integer power; both
    # overflow where math.exp and ** do, so the heights rise to inf
    h = DecayHeights(F(-1, 2), F(-22))
    s = PiSequence(F(1), F(-49, 100), F(1))
    vals = [h.value(s, j) for j in range(176, 183)]
    assert vals == sorted(vals)
    assert vals[3] < vals[4] < math.inf == vals[5]
    assert h.sup(s, 176, 179) == vals[3]


@settings(max_examples=100, deadline=None)
@given(c=st.floats(allow_nan=True, allow_infinity=True),
       j1=st.integers(1, 50), n=st.integers(0, 50))
def test_const_heights_sup_is_the_walk(c, j1, n):
    walk = 0.0
    for j in range(j1, j1 + n):
        walk = max(walk, abs(ConstHeights(c).value(Harmonic(), j)))
    assert repr(ConstHeights(c).sup(Harmonic(), j1, j1 + n - 1)) == repr(walk)


def test_heights_sup_over_every_index():
    half, inf = Geometric(F(1, 2)), math.inf
    assert DecayHeights(F(1), F(0)).sup(half, 1, inf) == 0.5
    assert DecayHeights(F(0), F(2)).sup(half, 3, inf) == 2.0 ** -6
    # (1/j)^(j - 10) peaks at j = 4 before the exponent turns positive
    rising = DecayHeights(F(1), F(-10))
    assert rising.sup(Harmonic(), 1, inf) == 4096.0 == \
        max(rising.value(Harmonic(), j) for j in range(1, 40))
    # heights that grow without bound
    assert DecayHeights(F(0), F(-1)).sup(half, 1, inf) == inf
    assert DecayHeights(F(-1), F(5)).sup(half, 1, inf) == inf
