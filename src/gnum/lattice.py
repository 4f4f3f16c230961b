"""Order-lattice operations: absolute value, min, max, and the
convexity/absolute-convexity factor constructions.

The lattice operations build a continuous representative (abs/min/max of
a smooth net is only continuous) and, mirroring the definition of the
absolute value through the smooth-continuous isomorphism, re-smooth it
back into the smooth tier.  By default (``resmooth=True``) a result that
is not already smooth is re-smoothed; ``resmooth=False`` keeps the
pointwise-exact continuous representative, which is what the identity
tests evaluate before smoothing blurs them by at most exp(-1/eps).
"""

from __future__ import annotations

from . import nets
from .asymptotics import leq
from .errors import PreconditionError
from .harness import GridSpec
from .nets import (AbsFactor, ExpNegRecip, GNumber, Tier, absn, maxn,
                   minimal_tier, minn, nonneg_net)
from .smoothing import _presimplify, smooth_approximate


def _finish(net, resmooth: bool) -> GNumber:
    simplified = _presimplify(net)
    mt = minimal_tier(simplified)
    if resmooth and mt > Tier.Smooth:
        # the output net does not depend on the report grid; a coarse one
        # keeps lattice-level re-smoothing cheap
        return smooth_approximate(simplified,
                                  grid=GridSpec(n_points=160,
                                                eps_min=1e-5)).output
    return GNumber(simplified, mt)


def gabs(x, resmooth: bool = True) -> GNumber:
    """|x| as a generalized number.

    The continuous representative is (|x_eps|)_eps; it is re-smoothed so
    the result lies in the smooth tier (the isomorphism route), unless
    ``resmooth=False`` keeps the continuous one.
    """
    return _finish(absn(nets._gn(x).net), resmooth)


def gmin(x, y, resmooth: bool = True) -> GNumber:
    """Pointwise minimum of real generalized numbers."""
    gx, gy = nets._gn(x), nets._gn(y)
    return _finish(minn(gx.net, gy.net), resmooth)


def gmax(x, y, resmooth: bool = True) -> GNumber:
    """Pointwise maximum of real generalized numbers."""
    gx, gy = nets._gn(x), nets._gn(y)
    return _finish(maxn(gx.net, gy.net), resmooth)


def abs_factor(x) -> GNumber:
    """A factor a with a*x = |x| up to negligibility and |a| <= 2
    everywhere, built from the eps^m/|x| patch schedule blended over the
    cover {(1/(m+1), 1/(m-1))}."""
    gx = nets._gn(x)
    return GNumber(AbsFactor(gx.net), max(Tier.Continuous, gx.tier))


def convex_factor(x, y) -> GNumber:
    """For 0 <= y <= x, a factor a with 0 < a_eps <= 1 pointwise and
    a*x = y up to negligibility.

    Representatives are normalized as in the convexity proof: absolute
    values plus the negligible regularizer exp(-1/eps), with the
    denominator lifted to max(|x|, |y|) so the quotient stays in (0, 1].
    """
    gx, gy = nets._gn(x), nets._gn(y)
    t1 = leq(nets.const(0.0), gy.net)
    t2 = leq(gy.net, gx.net)
    if not (t1.is_true and t2.is_true):
        raise PreconditionError(
            f"convex_factor needs 0 <= y <= x decided True; got {t1}, {t2}")
    ax = gx.net if nonneg_net(gx.net) else absn(gx.net)
    ay = gy.net if nonneg_net(gy.net) else absn(gy.net)
    delta = ExpNegRecip()
    num = nets.add(ay, delta)
    den = nets.add(maxn(ax, ay), delta)
    a = nets.mul(num, nets.inv(den))
    return GNumber(a, max(Tier.Continuous, gx.tier, gy.tier))
