"""The numeric oracle itself: replay primitives, regression, random nets."""

import math
from fractions import Fraction as F

import pytest

from gnum import harness
from gnum.asymptotics import is_strictly_nonzero
from gnum.errors import DomainError
from gnum.harness import (GridSpec, estimate_valuation, eval_grid,
                          random_net, replay_moderate, replay_negligible,
                          replay_small_along, verify_decision)
from gnum.nets import (EPS, ExpNegRecip, Indicator, SpikeTrain, Tier, const,
                       eval_net, iter_nodes, minimal_tier, powq, sin_recip)
from gnum.sequences import PiSequence

GRID = GridSpec(n_points=400, eps_min=1e-6)


def test_grid_spec_invariants():
    pts = GRID.points()
    assert pts[0] == pytest.approx(1e-6)
    assert pts[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(pts, pts[1:]))
    with pytest.raises(DomainError):
        GridSpec(n_points=4)
    for eps_min in (0.0, 2.0, 1.0, math.nan):
        with pytest.raises(DomainError):
            GridSpec(eps_min=eps_min)


def test_replay_negligible_pass_and_fail():
    assert replay_negligible(ExpNegRecip(), 12, GRID).passed
    rep = replay_negligible(powq(EPS, 3), 12, GRID)
    assert not rep.passed
    assert rep.arg_eps is not None and rep.arg_eps < 1e-2
    assert "m=4" in rep.detail
    assert replay_negligible(const(0), 12, GRID).passed


def test_replay_says_when_the_fitted_constant_is_not_finite():
    # the head values of this net overflow vh / head**m from m = 11; the
    # oracle only falsifies, so the report passes and says why
    rep = replay_negligible(random_net(692, Tier.Smooth, 5))
    assert rep.passed and rep.detail == "no finite constant from m=11"
    rep = replay_negligible(const(1e308), 12, GRID)
    assert rep.passed and rep.detail == "no finite constant from m=0"
    rep = replay_moderate(const(1e308), 0, GRID)
    assert rep.passed and rep.detail == "no finite constant"


def test_replay_small_along_sine_zeros():
    zeros = PiSequence(F(1), F(0), F(1))
    assert replay_small_along(sin_recip(1), zeros, 12).passed
    # a net with no small points fails
    assert not replay_small_along(const(1), zeros, 2).passed


def test_replay_small_along_searches_each_ladder_point_once(monkeypatch):
    # every m = 0..12 needs the searches around the same three ladder
    # points; each runs once, not once per m (33 in all)
    x = random_net(13, Tier.Smooth, 5)
    tri = is_strictly_nonzero(x)
    assert tri.value is False and tri.witness.kind == "small-along"
    searches = []
    search = harness._local_min_abs

    def counted(net, lo, hi):
        searches.append((lo, hi))
        return search(net, lo, hi)

    monkeypatch.setattr(harness, "_local_min_abs", counted)
    assert verify_decision("strictly-nonzero", tri, x).passed
    assert len(searches) == len(set(searches)) == 3


def test_estimate_valuation_powers():
    s, se = estimate_valuation(powq(EPS, F(3, 2)), GRID)
    assert abs(s - 1.5) <= 0.05 and se < 0.05
    s, se = estimate_valuation(powq(EPS, -2), GRID)
    assert abs(s + 2.0) <= 0.05
    s, se = estimate_valuation(const(1), GRID)
    assert abs(s) <= 0.05


def test_random_net_depth_zero_is_leaf():
    x = random_net(0, Tier.Smooth, 0)
    assert len(list(iter_nodes(x))) <= 2


def test_random_net_tier_admissible():
    for seed in range(40):
        x = random_net(seed, Tier.Continuous, 4)
        assert minimal_tier(x) <= Tier.Continuous
        assert not any(isinstance(n, (Indicator, SpikeTrain))
                       for n in iter_nodes(x))
    for seed in range(20):
        x = random_net(seed, Tier.Smooth, 4)
        assert minimal_tier(x) == Tier.Smooth


def test_random_net_deterministic():
    for tier in (Tier.Smooth, Tier.Continuous, Tier.Arbitrary):
        for seed in (0, 7, 123):
            assert random_net(seed, tier, 3) == random_net(seed, tier, 3)


def test_eval_grid_rows():
    rows = eval_grid(EPS, GridSpec(n_points=16, eps_min=1e-3))
    assert len(rows) == 16
    for e, v in rows:
        assert v == e


def test_deep_coherence_sweep():
    # depth-4 trees stress the replay calibrations (ratio humps, float
    # floors, compensated-product collisions); decided verdicts must
    # never contradict the oracle
    from gnum import asymptotics as asym
    from gnum.harness import verify_decision
    grid = GridSpec(n_points=250, eps_min=1e-6)
    tiers = [Tier.Smooth, Tier.Continuous, Tier.Arbitrary]
    contradictions = []
    for seed in range(400):
        x = random_net(seed, tiers[seed % 3], 4)
        for claim, fn in (("moderate", asym.is_moderate),
                          ("negligible", asym.is_negligible),
                          ("strictly-nonzero", asym.is_strictly_nonzero)):
            tri = fn(x)
            rep = verify_decision(claim, tri, x, grid=grid)
            if rep is not None and not rep.passed:
                contradictions.append((seed, claim, tri.value, rep.detail))
    assert not contradictions, contradictions[:4]
