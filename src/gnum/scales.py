"""Exact scale arithmetic for asymptotic decisions.

A *monomial* is c * exp(-k/eps) * eps**q * prod(atom_i ** p_i) with k, q
and the atom powers exact rationals and c a double (real or complex).
Atoms are net subtrees the polynomial algebra treats as opaque symbols
(oscillators, abs-values of non-simplifiable sums, bump trains, ...).

As eps -> 0 the pure scale part exp(-k/eps) * eps**q is totally ordered:
the term with lexicographically smaller (k, q) dominates.  Polynomials
(finite monomial sums) and quotients of them form the fragment on which
the decision procedures in ``asymptotics`` are exact; everything else is
handled by the envelope bounds in ``profiles``.

Exponents stay exact so decisions never depend on floating noise, and in
normal form (``normal_exp``: an ``int`` if integral, else a ``Fraction``),
so most hash and compare in C; they leave this module as ``Fraction``s.
Coefficients are doubles and near-total cancellations are chopped at
relative 1e-12, mirroring the evaluator's own rounding.  An infinite
coefficient is kept, never chopped as cancelled, and inf - inf = nan is
kept with it; the envelope bounds in ``profiles`` take a coefficient that
is not finite for no bound at all.

Monomials print and sort by their atoms' ``repr``, which each atom node
stores at its first use, and a ``Poly`` sorts its terms once and keeps
the order (its scale groups are runs of it): a polynomial's terms are
never changed once it is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import nets
from .nets import NetExpr
from .records import Record

F0 = 0
CHOP = 1e-12

Exp = Union[int, Fraction]
Atoms = Tuple[Tuple[NetExpr, Exp], ...]
Mono = Tuple[Exp, Exp, Atoms]

MONO_ONE: Mono = (F0, F0, ())


def normal_exp(x: Exp) -> Exp:
    return x.numerator if x.denominator == 1 else x


def _atom_key(a: NetExpr) -> str:
    return nets.stored(a, "_repr", repr)


def atoms_from(pairs: Iterable[Tuple[NetExpr, Exp]]) -> Atoms:
    merged: Dict[NetExpr, Exp] = {}
    for a, p in pairs:
        merged[a] = merged.get(a, F0) + p
    # |a|^(2k) = a^(2k) for real a: canonicalize to the bare atom
    for a in list(merged):
        p = merged[a]
        if isinstance(a, nets.AbsNode) and p.denominator == 1 \
                and p.numerator % 2 == 0 and nets.is_real_net(a.x):
            del merged[a]
            merged[a.x] = merged.get(a.x, F0) + p
    items = [(a, normal_exp(p)) for a, p in merged.items() if p != 0]
    items.sort(key=lambda ap: _atom_key(ap[0]))
    return tuple(items)


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return (normal_exp(m1[0] + m2[0]), normal_exp(m1[1] + m2[1]),
            atoms_from(m1[2] + m2[2]))


def mono_pow(m: Mono, r: Exp) -> Mono:
    return (normal_exp(m[0] * r), normal_exp(m[1] * r),
            atoms_from((a, p * r) for a, p in m[2]))


def scale_key(m: Mono) -> Tuple[Exp, Exp]:
    """Dominance key: lexicographically smaller (k, q) dominates as eps->0."""
    return (m[0], m[1])


def mono_sort_key(m: Mono):
    return (m[0], m[1], tuple((_atom_key(a), p) for a, p in m[2]))


def _cancelled(s, peak: float) -> bool:
    """A sum chopped against the largest term that went into it; an
    infinite peak is never a cancellation."""
    return abs(s) <= CHOP * peak < math.inf


class Poly:
    """Finite monomial sum with chop-on-cancel coefficient arithmetic.

    ``terms`` is never mutated after construction (every operation builds
    a new ``Poly``), so the order ``sorted_terms`` computes is kept.  The
    dict passed to ``Poly(...)`` is the polynomial's own from then on, and
    so is the list ``sorted_terms`` returns: neither is changed by anyone.
    ``tests/test_hygiene.py`` checks ``src/gnum`` for writes through a
    ``.terms`` attribute only, not through another name for the dict."""

    __slots__ = ("terms", "_sorted")

    def __init__(self, terms: Optional[Dict[Mono, complex]] = None):
        self.terms: Dict[Mono, complex] = terms or {}
        self._sorted: Optional[List[Tuple[Mono, complex]]] = None

    # -- builders ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        if c == 0:
            return Poly.zero()
        return Poly({MONO_ONE: c})

    @staticmethod
    def scale_mono(k: Exp, q: Exp) -> "Poly":
        return Poly({(normal_exp(k), normal_exp(q), ()): 1.0})

    @staticmethod
    def atom(a: NetExpr) -> "Poly":
        return Poly({(F0, F0, atoms_from([(a, 1)])): 1.0})

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                a = out[m]
                s = a + c
                if _cancelled(s, max(abs(a), abs(c))):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Poly(out)

    def neg(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly.zero()
        return Poly({m: v * c for m, v in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        # one [sum, peak] slot per product monomial: hashing a monomial
        # hashes each of its exponents (in C for an int)
        acc: Dict[Mono, list] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                slot = acc.setdefault(mono_mul(m1, m2), [0.0, 0.0])
                slot[0] += c
                slot[1] = max(slot[1], abs(c))
        return Poly({m: s for m, (s, peak) in acc.items()
                     if not _cancelled(s, peak)})

    def pow_int(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("pow_int needs n >= 0")
        out = Poly.const(1.0)
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            base = base.mul(base)
            n >>= 1
        return out

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> List[Tuple[Mono, complex]]:
        """The terms in ``mono_sort_key`` order, sorted at the first call
        and kept: every call returns the same list, which is read only."""
        if self._sorted is None:
            self._sorted = sorted(self.terms.items(),
                                  key=lambda mc: mono_sort_key(mc[0]))
        return self._sorted

    def grouped_by_scale(self) -> List[Tuple[Tuple[Exp, Exp],
                                             List[Tuple[Atoms, complex]]]]:
        """Terms grouped by pure scale (k, q), most dominant group first:
        (k, q) leads the sort key, so each group is a run of the stored
        order."""
        return [(k, [(m[2], c) for m, c in run]) for k, run in
                groupby(self.sorted_terms(), key=lambda mc: scale_key(mc[0]))]

    def single_term(self) -> Optional[Tuple[Mono, complex]]:
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def gcd_mono(self) -> Mono:
        """Componentwise-min monomial dividing every term."""
        if not self.terms:
            return MONO_ONE
        ms = list(self.terms)
        k = min(m[0] for m in ms)
        q = min(m[1] for m in ms)
        common: Dict[NetExpr, Exp] = dict(ms[0][2])
        for m in ms[1:]:
            d = dict(m[2])
            for a in list(common):
                p = min(common[a], d.get(a, F0))
                if p > 0:
                    common[a] = p
                else:
                    del common[a]
        return (k, q, atoms_from(common.items()))

    def divide_mono(self, m: Mono) -> "Poly":
        if m == MONO_ONE:   # as simplify divides over a constant denominator
            return self
        inv = mono_pow(m, -1)
        return Poly({mono_mul(t, inv): c for t, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for (k, q, atoms), c in self.sorted_terms():
            s = f"{c!r}"
            if k:
                s += f"*E^{k}"
            if q:
                s += f"*eps^{q}"
            for a, p in atoms:
                s += f"*[{type(a).__name__}]^{p}"
            bits.append(s)
        return "Poly(" + " + ".join(bits) + ")"


def canonical_net(p: Poly) -> NetExpr:
    """Deterministic tree rebuild of a polynomial (for canonical atoms)."""
    if p.is_zero():
        return nets.ZERO
    parts = []
    for (k, q, atoms), c in p.sorted_terms():
        k, q = Fraction(k), Fraction(q)     # node exponents are Fractions
        factors: List[NetExpr] = []
        if c != 1.0 or (not atoms and k == 0 and q == 0):
            factors.append(nets.Const(c))
        if k != 0:
            factors.append(nets.PowQ(nets.ExpNegRecip(), k) if k != 1
                           else nets.ExpNegRecip())
        if q != 0:
            factors.append(nets.PowQ(nets.EPS, q) if q != 1 else nets.EPS)
        for a, pw in atoms:
            factors.append(a if pw == 1 else nets.PowQ(a, Fraction(pw)))
        term = factors[0]
        for f in factors[1:]:
            term = nets.Mul(term, f)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out = nets.Add(out, t)
    return out


class RatForm(Record):
    """num/den with den from a structurally nowhere-zero net (den != 0
    pointwise); den == Poly.const(1) on the purely polynomial fragment."""

    num: Poly
    den: Poly

    @staticmethod
    def from_poly(p: Poly) -> "RatForm":
        return RatForm(p, Poly.const(1.0))

    def is_poly(self) -> bool:
        st = self.den.single_term()
        return st is not None and st[0] == MONO_ONE

    def simplify(self) -> "RatForm":
        if self.num.is_zero():
            return RatForm(Poly.zero(), Poly.const(1.0))
        st = self.den.single_term()
        if st is not None:
            m, c = st
            num = self.num.divide_mono(m).scale(1.0 / c)
            return RatForm(num, Poly.const(1.0))
        g = Poly({self.num.gcd_mono(): 1.0,
                  self.den.gcd_mono(): 1.0}).gcd_mono()
        if g != MONO_ONE:
            return RatForm(self.num.divide_mono(g), self.den.divide_mono(g))
        return self

    def add(self, o: "RatForm") -> "RatForm":
        if self.is_poly() and o.is_poly():
            return RatForm(self.num.add(o.num), Poly.const(1.0))
        return RatForm(self.num.mul(o.den).add(o.num.mul(self.den)),
                       self.den.mul(o.den)).simplify()

    def neg(self) -> "RatForm":
        return RatForm(self.num.neg(), self.den)

    def mul(self, o: "RatForm") -> "RatForm":
        return RatForm(self.num.mul(o.num), self.den.mul(o.den)).simplify()

    def inv(self) -> "RatForm":
        return RatForm(self.den, self.num).simplify()

    def pow_int(self, n: int) -> "RatForm":
        if n >= 0:
            return RatForm(self.num.pow_int(n), self.den.pow_int(n)).simplify()
        return self.inv().pow_int(-n)

    def scale(self, c) -> "RatForm":
        return RatForm(self.num.scale(c), self.den)
