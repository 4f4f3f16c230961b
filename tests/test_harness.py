"""The numeric oracle itself: replay primitives, regression, random nets."""

import copy
import math
import pickle
from fractions import Fraction as F
from itertools import repeat
from operator import truediv

import numpy as np
import pytest

from gnum import asymptotics as asym
from gnum import harness
from gnum.asymptotics import (Scan, _find_violation_on_seq, is_moderate,
                              is_negligible, is_strictly_nonzero, valuation)
from gnum.constructions import CharsetPoints
from gnum.dsl import print_net
from gnum.errors import DomainError, SearchExhausted
from gnum.harness import (DEFAULT_GRID, GridSpec, estimate_valuation,
                          eval_grid, random_net, replay_growth_along,
                          replay_lower_eventual, replay_moderate,
                          replay_negligible, replay_negligible_diff,
                          replay_order_violation,
                          replay_small_along, verify_decision)
from gnum.ideals import membership
from gnum.nets import (EPS, ONE, ZERO, ExpNegRecip, Indicator, PowQ, RootN,
                       Tier, add, const, eval_net, eval_points, inv,
                       iter_nodes, minimal_tier, mul, neg, powq, sin_recip,
                       sub)
from gnum.sequences import Geometric, Harmonic, PiSequence, SequenceRule

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


def _prefix_replay_lower_eventual(x, m, eps0, grid=DEFAULT_GRID):
    """(passed, max_violation, arg_eps) of the replay as it was written
    before it sliced the values of the whole grid: the points below eps0
    evaluated as a grid of their own."""
    scan, sel = grid, grid.points() <= eps0
    if np.count_nonzero(sel) < 3:
        scan, sel = Scan(lambda: [eps0 * 0.5 ** k for k in range(1, 12)
                                  if eps0 * 0.5 ** k > 1e-9]), slice(None)
    pts, need = scan.points()[sel], scan.powers(m)[sel] * (1 - 1e-9)
    v = harness._abs_points(x, pts)
    short = np.where(v < need, need - v, 0.0)
    if len(pts) and short.max() > 0.0:
        i = int(np.argmax(short))
        return False, float(short[i]).hex(), float(pts[i]).hex()
    return True, 0.0.hex(), None


# eps0 below the third grid point (the halving fallback), at the top of
# the calibration scans, and in between; the default grid and another
@pytest.mark.parametrize("grid, eps0", [
    (DEFAULT_GRID, 5e-7), (DEFAULT_GRID, 1.02e-6), (DEFAULT_GRID, 0.6),
    (DEFAULT_GRID, 3e-3), (GridSpec(300, 1e-4), 0.6),
    (GridSpec(300, 1e-4), 1.05e-4), (GridSpec(300, 1e-4), 0.02)])
def test_replay_lower_eventual_reads_the_prefix_of_the_whole_grid(grid,
                                                                  eps0):
    verdicts = set()
    for tier in Tier:
        for seed in range(8):
            x = random_net(seed, tier, 4)
            for m in (0, 2, 5):
                rep = replay_lower_eventual(x, m, eps0, grid)
                got = (rep.passed, float(rep.max_violation).hex(),
                       None if rep.arg_eps is None else rep.arg_eps.hex())
                assert got == _prefix_replay_lower_eventual(x, m, eps0,
                                                            grid), (x, m)
                verdicts.add(rep.passed)
    assert verdicts == {True, False}


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
    # the floored difference says it too, with no overflow warning: its
    # tail overflows, and its head ratio does from m = 2
    rep = replay_negligible_diff(random_net(2, Tier.Smooth, 3), const(0.0))
    assert rep.passed and rep.detail == "no finite constant from m=2"


@pytest.mark.parametrize("seed, tier, depth, worst", [
    (97, Tier.Smooth, 3, 431731996592922.94),
    (18, Tier.Arbitrary, 4, 988946717007650.5)])
def test_replay_moderate_fits_with_a_product(seed, tier, depth, worst):
    # C = 4 max |x| * eps**N on the head; dividing by eps**-N instead
    # moves the last digit of these two excesses
    rep = replay_moderate(random_net(seed, tier, depth), 2)
    assert not rep.passed and rep.max_violation == worst


def test_replay_negligible_exempts_a_ratio_hump_that_turns_over():
    # from m = 7 the constant fitted on the head is exceeded on the tail,
    # but twelve decades below the grid the ratio |x| / eps**m has fallen
    # under half its peak: a transient hump, so the replay passes
    x = random_net(775, Tier.Continuous, 5)
    assert print_net(x) == "root(abs(bumptrain(geo(1/3), decay(1, 0))), 3)"
    assert is_negligible(x).is_true
    pts = DEFAULT_GRID.points()
    v = harness._abs_points(x, pts)
    # the fitted bound of each m alone, with no deep probe
    exceeded = [m for m in range(13)
                if not harness._fitted_bound("", pts, v, m).passed]
    assert exceeded == list(range(7, 13))
    assert replay_negligible(x) == harness.ReplayReport(
        "negligible(m<=12)", True)


@pytest.mark.parametrize("x, n", [
    (ExpNegRecip(), 0), (mul(EPS, ExpNegRecip()), 0),
    (random_net(775, Tier.Continuous, 5), 1)])
def test_replay_negligible_probes_the_deep_end_only_on_a_tail_excess(
        monkeypatch, x, n):
    # exp(-1/eps) and eps*exp(-1/eps) exceed no fitted constant on the
    # tail; the hump net first does at m = 7, and m = 8..12 reuse its probe
    calls, deep = [], GridSpec.deep

    def counted(grid):
        calls.append(grid)
        return deep(grid)

    monkeypatch.setattr(GridSpec, "deep", counted)
    assert replay_negligible(x).passed
    assert len(calls) == n


class _Counted(SequenceRule):
    """1/j, recording each index it is asked for."""

    def __init__(self):
        self.asked = []

    def value(self, j):
        self.asked.append(j)
        return 1.0 / j


@pytest.mark.parametrize("x, passed", [(const(1), True),
                                       (powq(EPS, 5), False)])
def test_replay_growth_along_reads_the_sequence_as_the_walk_reaches_it(
        x, passed):
    # every ratio |x(1/j)| * j is finite, so the 64 ratios come from the
    # first 64 points and the walk asks the rule for no index past 64
    seq = _Counted()
    assert replay_growth_along(x, seq, 1).passed is passed
    assert sorted(seq.asked) == list(range(1, 65))


def test_replay_growth_along_ends_where_a_finite_rule_does():
    # 16 points: the walk ends after them and judges the 16 ratios
    seq = CharsetPoints(tuple(0.5 ** k for k in range(1, 17)))
    rep = replay_growth_along(EPS, seq, 3)
    assert rep == harness.ReplayReport("growth-along", True,
                                       detail="ratio 256 -> 4.29e+09")
    # 5 points give too few ratios to judge
    seq = CharsetPoints(tuple(0.5 ** k for k in range(1, 6)))
    rep = replay_growth_along(EPS, seq, 3)
    assert rep.passed and rep.detail == "insufficient evaluable points"


def test_replay_small_along_sine_zeros():
    zeros = PiSequence(F(1), F(0), F(1))
    assert replay_small_along(sin_recip(1), zeros, 12).passed
    # a net with no small points fails
    assert not replay_small_along(const(1), zeros, 2).passed


def _small_along_searches(monkeypatch, x):
    """(report, searched intervals) of the strictly-nonzero False replay."""
    tri = is_strictly_nonzero(x)
    assert tri.value is False and tri.witness.kind == "small-along"
    searches = []
    search = harness._local_min_abs

    def counted(net, lo, hi):
        searches.append((lo, hi))
        return search(net, lo, hi)

    monkeypatch.setattr(harness, "_local_min_abs", counted)
    return verify_decision("strictly-nonzero", tri, x), searches


def test_replay_small_along_searches_each_ladder_point_once(monkeypatch):
    # a ladder point itself is below eps**m for every m = 0..12, so no
    # search around a ladder point runs
    rep, searches = _small_along_searches(monkeypatch,
                                          random_net(13, Tier.Smooth, 5))
    assert rep.passed and searches == []


@pytest.mark.parametrize("tier, depth, seed, n, detail", [
    (Tier.Smooth, 5, 622, 2, ""),
    (Tier.Continuous, 4, 85, 59, "resolution-limited below eps^10")])
def test_replay_small_along_searches_only_where_no_ladder_point_is_small(
        monkeypatch, tier, depth, seed, n, detail):
    # some m finds no ladder point below eps**m and searches around each
    # ladder point; every search runs once, not once per m.  Seed 622
    # passes on a local minimum (a pass with an empty detail after a
    # search), seed 85 on the float-resolution band
    rep, searches = _small_along_searches(monkeypatch,
                                          random_net(seed, tier, depth))
    assert rep == harness.ReplayReport("small-along", True, detail=detail)
    assert len(searches) == len(set(searches)) == n


def test_replay_small_along_does_not_count_eps_one():
    # at eps = 1 every eps**m is 1, so 0.5 < eps**m there proves nothing
    for seq in (Geometric(F(1, 2)), Harmonic()):
        rep = replay_small_along(const(0.5), seq, 12)
        assert not rep.passed and rep.detail == "no point below eps^1"


class _EndsAt(SequenceRule):
    """1/j, with ``error`` raised at the indices below ``j_min``."""

    def __init__(self, error, j_min):
        self.error, self.j_min = error, j_min

    def value(self, j):
        if j < self.j_min:
            raise self.error
        return 1.0 / j


def test_replay_small_along_skips_only_an_ended_search():
    # index 0 of a harmonic rule is 1/0: skipped like an ended search
    assert replay_small_along(const(0), Harmonic(), 2).passed
    seq = _EndsAt(SearchExhausted("past the prefix"), 5)
    assert replay_small_along(const(0), seq, 2).passed
    with pytest.raises(ValueError):
        replay_small_along(const(0), _EndsAt(ValueError(), 5), 2)


def test_violation_search_along_a_sequence_skips_only_an_ended_search():
    seq = _EndsAt(SearchExhausted("past the prefix"), 3)
    assert _find_violation_on_seq(const(1), const(0), 1, seq) == 1 / 3
    with pytest.raises(ZeroDivisionError):
        _find_violation_on_seq(const(1), const(0), 1,
                               _EndsAt(ZeroDivisionError(), 3))


def test_replay_order_violation_skips_complex_values():
    # (-1/eps)^53 overflows to a complex infinity at the grid's head;
    # those points have no real value and are skipped
    y = powq(neg(inv(EPS)), 53)
    rep = replay_order_violation(0, y, 1, None)
    assert rep.passed and 1e-6 < rep.arg_eps
    assert 0.0 > eval_net(y, rep.arg_eps) + rep.arg_eps


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
        assert not any(isinstance(n, Indicator)
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


# -- scan grids built once ---------------------------------------------------
#
# A grid keeps its points, their powers and their logs; each must be what
# the expression the code used before it was stored gives, bit for bit.

SCANS = {"default": DEFAULT_GRID, "lower": asym._LOWER_SCAN,
         "lower-dense": asym._LOWER_DENSE, "leq": asym._LEQ_SCAN,
         "violation": asym._VIOLATION_SCAN, "product": asym._PRODUCT_SCAN}


def _log_points(lo, hi, n):
    """The calibration scans as they were built on every call."""
    steps = map(pow, repeat(hi / lo), map(truediv, range(n), repeat(n - 1)))
    return (lo * np.fromiter(steps, float, n)).tolist()


def _powers(pts, m):
    return np.fromiter(map(pow, pts, repeat(m)), float, len(pts))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_each_scan_keeps_the_construction_it_had():
    lo = math.log10(DEFAULT_GRID.eps_min)
    want = {"default": np.logspace(lo, 0.0, 1000),
            "lower": _log_points(1e-6, 0.6, 160),
            "lower-dense": _log_points(1e-6, 0.6, 1400),
            "leq": _log_points(1e-6, 0.9, 160),
            "violation": _log_points(1e-6, 0.9, 200),
            "product": [10.0 ** (-6 + 5.7 * i / 239) for i in range(240)]}
    for name, scan in SCANS.items():
        assert _same_bits(scan.points(), want[name]), name
    assert _same_bits(DEFAULT_GRID.deep(),
                      np.logspace(lo - 12.0, lo, 400))
    # the coarse lower scan ends where the stored dense one does
    assert asym._LOWER_SCAN.points()[-1] == 0.6


def test_stored_powers_and_logs_are_the_pointwise_values():
    for name, scan in SCANS.items():
        pts = scan.points().tolist()
        for m in range(13):
            assert _same_bits(scan.powers(m), _powers(pts, m)), (name, m)
            assert scan.powers(m) is scan.powers(m)
        assert scan.logs().tolist() == [math.log(e) for e in pts], name
        assert scan.points() is scan.points()


def test_stored_arrays_are_read_only():
    grid = GridSpec(n_points=40, eps_min=1e-4)
    arrays = [grid.points(), grid.powers(2), grid.logs(), grid.deep(),
              *grid.split(), asym._PRODUCT_SCAN.powers(5)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.5
    # a grid's equality and hash read only its fields, not what it stores
    assert grid == GridSpec(n_points=40, eps_min=1e-4)
    assert hash(grid) == hash(GridSpec(n_points=40, eps_min=1e-4))


def _replays(x):
    """Reprs of the three deciders' replays and of the regression on x."""
    return [repr(verify_decision(claim, decide(x), x))
            for claim, decide in (("moderate", is_moderate),
                                  ("negligible", is_negligible),
                                  ("strictly-nonzero", is_strictly_nonzero))
            ] + [repr(estimate_valuation(x))]


def test_each_net_keeps_its_values_on_the_default_grid():
    pts = DEFAULT_GRID.points()
    for seed in range(40):
        for tier in Tier:
            for depth in (3, 4, 5):
                x = random_net(seed, tier, depth)
                first = _replays(x)
                assert _replays(x) == first, (seed, tier, depth)
                # kept per grid, and a grid is equal to one of its fields
                v = vars(x)["_grid_abs"][GridSpec()]
                assert not v.flags.writeable
                want = np.abs(eval_points(x, pts, fill=math.inf)) \
                    .astype(float)
                nan = np.isnan(want)
                assert (np.isnan(v) == nan).all(), (seed, tier, depth)
                assert _same_bits(v[~nan], want[~nan]), (seed, tier, depth)


def test_a_replay_below_the_grid_keeps_no_values():
    x = add(powq(EPS, 2), const(1e-3))
    # fewer than 3 grid points below eps0: the replay's own points
    assert replay_lower_eventual(x, 1, 1e-7)
    assert "_grid_abs" not in vars(x)
    assert replay_lower_eventual(x, 1, 1e-3)
    assert list(vars(x)["_grid_abs"]) == [DEFAULT_GRID]


def test_a_pickle_or_copy_of_a_net_leaves_its_grid_values_out():
    x = add(EPS, const(2.0))
    want = estimate_valuation(x)
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                 copy.deepcopy(x)):
        assert twin == x and "_grid_abs" not in vars(twin)
        # the twin makes its own, read-only again
        assert estimate_valuation(twin) == want
        assert not vars(twin)["_grid_abs"][DEFAULT_GRID].flags.writeable


def test_an_analysis_that_raises_keeps_nothing():
    # a left-nested chain past the recursion limit of the normal form
    chain = random_net(0, Tier.Smooth, 1)
    for s in range(1, 340):
        chain = add(chain, random_net(s, Tier.Smooth, 1))
    for _ in range(2):
        with pytest.raises(RecursionError):
            is_negligible(chain)
        assert "_uppers" not in vars(chain) and "_lowers" not in vars(chain)


def _reference_calibrate_lower(net, m):
    """``_calibrate_lower`` as it was: both scans rebuilt on every call."""
    def ok(pts):
        v = np.abs(eval_points(net, pts, fill=math.inf)).astype(float)
        return v >= _powers(pts, m)

    def last_passing(pts, ok):
        k = len(pts) if ok.all() else int(np.argmin(ok))
        return pts[k - 1] if k else None

    pts = _log_points(1e-6, 0.6, 160)
    good = last_passing(pts, ok(pts))
    if good is None:
        return 1e-6, good
    pts = _log_points(1e-6, good, 1400)
    refined = last_passing(pts, ok(pts))
    return (refined if refined is not None else 1e-6), good


def test_calibrate_lower_matches_the_two_pass_rebuild():
    # constants stop the coarse pass at a chosen point: at once, after the
    # first point (a dense pass over one repeated point) and midway
    cases = [(const(5e-7), 1), (const(1.01e-6), 1), (const(0.01), 1),
            (sub(const(0.2), EPS), 0), (EPS, 1), (powq(EPS, 2), 3)]
    cases += [(random_net(seed, tier, depth), m) for seed in range(40)
              for tier in Tier for depth in (3, 4, 5) for m in (0, 1, 3)]
    tops = set()
    for net, m in cases:
        want, good = _reference_calibrate_lower(net, m)
        got = asym._calibrate_lower(net, m)
        assert got == want and type(got) is float, (net, m)
        # again, from the values kept on the net
        assert asym._calibrate_lower(net, m) == want, (net, m)
        tops.add("none" if good is None else "dense" if good == 0.6
                 else "own")
    assert tops == {"none", "dense", "own"}


def test_a_pickled_or_copied_grid_rebuilds_read_only_arrays():
    grid = GridSpec(40, 1e-4)
    pts, sq = grid.points(), grid.powers(2)
    for twin in (pickle.loads(pickle.dumps(grid)), copy.copy(grid),
                 copy.deepcopy(grid)):
        assert twin == grid and "_arrays" not in vars(twin)
        for got, want in ((twin.points(), pts), (twin.powers(2), sq)):
            assert _same_bits(got, want) and not got.flags.writeable


def _lower_scan_evaluations(monkeypatch):
    """The calls of eval_points from asymptotics, by the fixed lower scan
    they evaluate (others as "other")."""
    calls = []
    fixed = {id(asym._LOWER_SCAN.points()): "lower",
             id(asym._LOWER_DENSE.points()): "lower-dense"}

    def counted(net, pts, fill=None):
        calls.append(fixed.get(id(pts), "other"))
        return eval_points(net, pts, fill)

    monkeypatch.setattr(asym, "eval_points", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: add(EPS, const(2.0)), lambda: powq(EPS, 2),
    lambda: mul(const(3.0), EPS), lambda: random_net(6, Tier.Continuous, 3)],
    ids=("sum", "square", "scaled", "random"))
def test_the_deciders_evaluate_each_fixed_lower_scan_once(monkeypatch,
                                                          make):
    x = make()      # a net of its own: nothing kept from other tests
    calls = _lower_scan_evaluations(monkeypatch)
    neg, nonzero = is_negligible(x), is_strictly_nonzero(x)
    assert neg.is_false and nonzero.is_true
    assert neg.witness.kind == nonzero.witness.kind == "exponent-bound"
    assert neg.witness.data[1] != nonzero.witness.data[1]   # two m's
    assert calls.count("lower") == 1
    assert calls.count("lower-dense") <= 1
    keys = set(vars(x)["_grid_abs"])
    assert asym._LOWER_SCAN in keys
    assert keys <= {asym._LOWER_SCAN, asym._LOWER_DENSE}


def test_an_ad_hoc_scan_is_never_a_key():
    # 0.01 passes the coarse scan up to about 0.01: a dense scan of its
    # own, evaluated and not kept
    x = const(0.01)
    assert asym._calibrate_lower(x, 1) < 0.011
    assert list(vars(x)["_grid_abs"]) == [asym._LOWER_SCAN]


# nets whose evaluator raises at some grid points: a root and a
# fractional power of an oscillator, and a power of a negative net
RAISING = [lambda: RootN(sin_recip(1), 2),
           lambda: PowQ(sin_recip(2), F(1, 2)),
           lambda: PowQ(sub(EPS, const(0.5)), F(3, 2))]


def _reports(x, grid=DEFAULT_GRID):
    """Reprs of every replay that reads |x| on a grid and of the
    regression (a calibration always filled with inf)."""
    return [repr(r) for r in (
        replay_negligible(x, 12, grid), replay_moderate(x, 1, grid),
        replay_moderate(x, 0, grid), replay_lower_eventual(x, 1, 0.3, grid),
        replay_lower_eventual(x, 0, 1e-7, grid),
        estimate_valuation(x, grid))]


@pytest.mark.parametrize("make", RAISING, ids=("root", "half", "negative"))
def test_an_inf_fill_reports_as_the_nan_fill_did(monkeypatch, make):
    pts = DEFAULT_GRID.points()
    assert np.isnan(eval_points(make(), pts, fill=math.nan)).any()
    x = make()
    got = _reports(x)
    v = vars(x)["_grid_abs"][DEFAULT_GRID]
    assert np.isinf(v).any() and not np.isnan(v).any()
    # the replays as they were, on values with a nan where it raises
    nan_filled = asym._abs_points
    monkeypatch.setattr(asym, "_abs_points",
                        lambda net, pts, fill=math.inf:
                        nan_filled(net, pts, math.nan))
    monkeypatch.setattr(harness, "_abs_points", asym._abs_points)
    y = make()
    assert _reports(y) == got
    assert np.isnan(vars(y)["_grid_abs"][DEFAULT_GRID]).any()


def test_a_pickle_or_copy_of_a_used_net_round_trips():
    # after the four questions, their replays and membership, a node
    # keeps substitutions that can hold itself (EPS along any sequence
    # is EPS) and arrays: a pickle or copy leaves those stores out
    xs = [EPS, ONE, ZERO] + [random_net(seed, tier, 3)
                             for seed in range(20) for tier in Tier]
    for x in xs:
        _replays(x)
        valuation(x)
        membership(x, add(EPS, const(1.0)))
        membership(EPS, x)
    assert any("_along" in vars(x) for x in xs)
    assert "_along" in vars(EPS) and "_grid_abs" in vars(EPS)
    for x in xs:
        want = _replays(x) + [repr(valuation(x))]
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                     copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x)
            assert not {"_fn", "_grid_abs", "_along"} & set(vars(twin))
            assert _replays(twin) + [repr(valuation(twin))] == want
