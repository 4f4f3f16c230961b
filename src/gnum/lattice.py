"""Order-lattice operations: absolute value, min, max, and the
convexity/absolute-convexity factor constructions.

The lattice operations return the pointwise continuous representative
(abs/min/max of a smooth net is only continuous), simplified.  The
smooth-tier element is its image under the smooth-continuous
isomorphism: ``smoothing.smooth_approximate(gabs(x)).output``.
"""

from __future__ import annotations

from . import nets
from .asymptotics import leq
from .errors import PreconditionError
from .nets import (AbsFactor, ExpNegRecip, GNumber, Tier, absn, gnumber, maxn,
                   minn, nonneg_net)
from .smoothing import _presimplify


def gabs(x) -> GNumber:
    """|x| as a generalized number: the continuous representative
    (|x_eps|)_eps."""
    return gnumber(_presimplify(absn(nets._gn(x).net)))


def gmin(x, y) -> GNumber:
    """Pointwise minimum of real generalized numbers."""
    return gnumber(_presimplify(minn(nets._gn(x).net, nets._gn(y).net)))


def gmax(x, y) -> GNumber:
    """Pointwise maximum of real generalized numbers."""
    return gnumber(_presimplify(maxn(nets._gn(x).net, nets._gn(y).net)))


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
