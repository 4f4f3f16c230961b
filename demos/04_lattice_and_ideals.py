"""Order, lattice, and ideal structure.

min/max/abs of continuous representatives and their smooth-tier images,
the f-ring law, the absolute-value and convexity factors, and the
finitely generated ideal algebra with its three-valued membership engine.
"""

from fractions import Fraction as F

from gnum import (EPS, FinIdeal, GridSpec, RootFamilyIdeal, abs_factor,
                  convex_factor, gabs, gmax, gmin, gn_equal,
                  interleaved_trains, intersect_principal,
                  is_radical_principal, is_strictly_nonzero, leq, membership,
                  power_membership, principal_forms, radical_membership,
                  smooth_approximate)
from gnum.harness import replay_negligible_diff
from gnum.nets import (absn, add, bump_train, const, cos_recip, eval_net,
                       gnumber, mul, neg, powq, rootn, sin_recip, sub,
                       DecayHeights)
from gnum.sequences import Harmonic

grid = GridSpec(n_points=400, eps_min=1e-6)

# -- lattice operations ---------------------------------------------------------

s, c = gnumber(sin_recip(1)), gnumber(cos_recip(1))
print("min(sin, cos) <= sin:", leq(gmin(s, c).net, s.net))
print("|sin| = max(sin, -sin):",
      gn_equal(gabs(s).net, gmax(s, gnumber(neg(s.net))).net))
print("|sin*cos| = |sin|*|cos|:",
      gn_equal(gabs(gnumber(mul(s.net, c.net))).net,
               mul(gabs(s).net, gabs(c).net)))
# the smooth-tier |sin| is the smooth-continuous isomorphism applied to it
smooth_abs = smooth_approximate(gabs(s), grid=grid)
print("smooth |sin|:", smooth_abs.output.tier,
      "within exp(-1/eps) on the grid:", smooth_abs.grid_max_ratio <= 1.0)

# the f-ring law (r ^ s) t = rt ^ st for t >= 0, exact at representative level
t = mul(sin_recip(2), sin_recip(2))
lhs = mul(gmin(s, c).net, t)
rhs = gmin(gnumber(mul(s.net, t)), gnumber(mul(c.net, t))).net
print("f-ring law:", gn_equal(lhs, rhs))

# -- the absolute-value factor: a*x = |x| with |a| <= 2 ---------------------------

x = mul(const(1j), EPS)                   # a complex net
a = abs_factor(gnumber(x)).net
print("\n|a| <= 2 on the grid:",
      max(abs(eval_net(a, float(e))) for e in grid.points()) <= 2.0)
print("a*x tracks |x|:",
      replay_negligible_diff(mul(a, x), absn(x), 10, grid).passed)

# the convexity factor: 0 <= y <= x gives y = a*x with 0 < a <= 1
af = convex_factor(gnumber(EPS), gnumber(powq(EPS, 2))).net
print("convex factor in (0, 1]:",
      all(0 < eval_net(af, float(e)) <= 1.0 for e in grid.points()))

# -- ideal algebra -----------------------------------------------------------------

J = FinIdeal((s, c))
sum_form, max_form = principal_forms(J)
print("\n<sin, cos> reduces to a strictly nonzero principal generator:",
      is_strictly_nonzero(sum_form.net))
print("sum-form and max-form generate each other:",
      membership(sum_form.net, max_form.net),
      membership(max_form.net, sum_form.net))

print("<eps> n <eps^2> = <eps^2>:",
      gn_equal(intersect_principal(gnumber(EPS),
                                   gnumber(powq(EPS, 2))).net,
               powq(EPS, 2)))

print("eps*sin in <sin>:", membership(mul(EPS, sin_recip(1)), sin_recip(1)))
print("1 in <sin>:      ", membership(const(1), sin_recip(1)))

bt, _ = interleaved_trains(F(1, 4))
print("r^2 in J^2 => r in J:",
      power_membership(gnumber(mul(mul(EPS, bt.net), mul(EPS, bt.net))),
                       bt, 2),
      membership(mul(EPS, bt.net), bt.net))

R = RootFamilyIdeal(bt, root_cap=8)
print("sqrt|s| in the radical of <s>:",
      radical_membership(gnumber(rootn(absn(bt.net), 2)), R))

# radicality of principal ideals: invertible generators say yes, a train
# of dips below every power says no (with a replayed refutation)
print("\n<eps> radical:", is_radical_principal(gnumber(EPS)))
dip = add(sub(const(1), bump_train(Harmonic())),
          bump_train(Harmonic(), heights=DecayHeights(F(1), F(0))))
print("<dip train> radical:", is_radical_principal(gnumber(dip)))
