"""Computer algebra for generalized numbers with smooth, continuous, and
arbitrary parameter dependence.

Nets are closed expression trees over eps in (0,1]; generalized numbers
are nets modulo negligibility.  The package provides exact/three-valued
asymptotic decision procedures, a constructive smoothing operator for
the smooth/continuous isomorphism, executable witnesses for the ring
structure (zero divisors, Gelfand pairs, annihilator splits,
characteristic sets), order-lattice operations, finitely generated ideal
algebra, a text DSL with CLI, and an independent numeric grid oracle.
"""

from .asymptotics import (DecisionTri, Valuation, WitnessRecord, gn_equal,
                          is_moderate, is_negligible, is_strictly_nonzero,
                          leq, valuation)
from .constructions import (CharacteristicSet, GelfandWitnesses, IdemVerdict,
                            annihilator_split, characteristic_set,
                            construct_zero_divisor, gelfand_witnesses,
                            idempotent_classify, interleaved_trains,
                            invertible_wrt, restriction_zero)
from .errors import (DomainError, GnumError, ParseError, PreconditionError,
                     SearchExhausted, TierError)
from .harness import (GridSpec, ReplayReport, estimate_valuation, eval_grid,
                      random_net, replay_moderate, replay_negligible,
                      verify_decision)
from .ideals import (FinIdeal, RootFamilyIdeal, intersect_principal,
                     is_radical_principal, membership, power_membership,
                     principal_forms, principal_reduce, radical_membership)
from .lattice import abs_factor, convex_factor, gabs, gmax, gmin
from .nets import (EPS, GNumber, NetExpr, Tier, absn, add, bump_train, const,
                   cos_recip, eval_net, eval_points, g_add, g_mul, g_neg,
                   g_sub, gnumber, indicator, inv, maxn, minimal_tier, minn,
                   mul, neg, powq, rootn, sin_recip, spikes, sub, tier_relax)
from .sequences import (Geometric, Harmonic, HarmonicMidpoints, Midpoints,
                        PiSequence, SequenceRule)
from .smoothing import (RefutationWitness, SmoothingReport,
                        refute_continuous_representative, smooth_approximate)
from .dsl import parse, print_net

__version__ = "0.1.0"
