"""Monomial keys and orders computed once.

An atom stores its sort key (its ``repr``) at first use, a ``Poly`` sorts
its terms once and groups them by scale from that order, a product hashes
each product monomial once, and dividing by the unit monomial is the
identity.  The reference functions below are the ones that recomputed
these on every call, copied verbatim; the stored results must equal
theirs.  Exponents are in normal form inside ``scales`` (an ``int`` when
integral, else a ``Fraction``) and ``Fraction``s wherever they leave."""

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from gnum import nets, scales
from gnum.asymptotics import valuation
from gnum.harness import random_net
from gnum.nets import NetExpr, Tier, cos_recip, sin_recip
from gnum.profiles import _rat_abs, info, rat, rat_lower, rat_upper
from gnum.scales import (CHOP, F0, MONO_ONE, Atoms, Mono, Poly, atoms_from,
                         mono_mul, mono_pow, scale_key)


def _reference_atom_key(a: NetExpr) -> str:
    return repr(a)


def _reference_atoms_from(pairs: Iterable[Tuple[NetExpr, Fraction]]) -> Atoms:
    merged: Dict[NetExpr, Fraction] = {}
    for a, p in pairs:
        merged[a] = merged.get(a, F0) + p
    # |a|^(2k) = a^(2k) for real a: canonicalize to the bare atom
    for a in list(merged):
        p = merged[a]
        if isinstance(a, nets.AbsNode) and p.denominator == 1 \
                and p.numerator % 2 == 0 and nets.is_real_net(a.x):
            del merged[a]
            merged[a.x] = merged.get(a.x, F0) + p
    items = [(a, p) for a, p in merged.items() if p != 0]
    items.sort(key=lambda ap: _reference_atom_key(ap[0]))
    return tuple(items)


def _reference_mono_sort_key(m: Mono):
    return (m[0], m[1], tuple((_reference_atom_key(a), p) for a, p in m[2]))


def _reference_sorted_terms(self) -> List[Tuple[Mono, complex]]:
    return sorted(self.terms.items(),
                  key=lambda mc: _reference_mono_sort_key(mc[0]))


def _reference_grouped_by_scale(self):
    groups = {}
    for m, c in _reference_sorted_terms(self):
        groups.setdefault(scale_key(m), []).append((m[2], c))
    return sorted(groups.items(), key=lambda g: g[0])


def _reference_divide_mono(self, m: Mono) -> "Poly":
    inv = mono_pow(m, Fraction(-1))
    return Poly({mono_mul(t, inv): c for t, c in self.terms.items()})


def _reference_repr(self):
    if not self.terms:
        return "Poly(0)"
    bits = []
    for (k, q, atoms), c in _reference_sorted_terms(self):
        s = f"{c!r}"
        if k:
            s += f"*E^{k}"
        if q:
            s += f"*eps^{q}"
        for a, p in atoms:
            s += f"*[{type(a).__name__}]^{p}"
        bits.append(s)
    return "Poly(" + " + ".join(bits) + ")"


def _reference_mul(self, other):
    acc: Dict[Mono, complex] = {}
    peak: Dict[Mono, float] = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            m = mono_mul(m1, m2)
            c = c1 * c2
            acc[m] = acc.get(m, 0.0) + c
            peak[m] = max(peak.get(m, 0.0), abs(c))
    out = {m: c for m, c in acc.items()
           if abs(c) > CHOP * peak[m]}
    return Poly(out)


def _normal_form_polys():
    """num and den of ``rat`` on random nets: seeds 0-59, every tier,
    depths 3 and 4."""
    for seed in range(60):
        for tier in Tier:
            for depth in (3, 4):
                r = rat(random_net(seed, tier, depth))
                yield r.num
                yield r.den


def test_stored_keys_and_orders_match_the_computed_ones():
    polys = list(_normal_form_polys())
    atoms_seen = 0
    for p in polys:
        want = _reference_sorted_terms(p)
        assert p.sorted_terms() == want
        assert p.sorted_terms() == want        # the stored order
        assert repr(p) == _reference_repr(p)
        assert p.grouped_by_scale() == _reference_grouped_by_scale(p)
        assert list(p.divide_mono(MONO_ONE).terms.items()) == list(
            _reference_divide_mono(p, MONO_ONE).terms.items())
        if p.terms:     # _canonical_abs_atom reads the first sorted term
            assert p.sorted_terms()[0][0] == min(
                p.terms, key=_reference_mono_sort_key)
        for m in p.terms:
            pairs = list(reversed(m[2])) + [(a, Fraction(1)) for a, _ in m[2]]
            assert atoms_from(pairs) == _reference_atoms_from(pairs)
            atoms_seen += len(m[2])
    assert atoms_seen > 500
    products = 0
    for p, q in zip(polys, polys[2:]):
        got = p.mul(q).terms
        assert list(got.items()) == list(_reference_mul(p, q).terms.items())
        products += len(got)
    assert products > 1000


def _sample_poly():
    a, b = sin_recip(Fraction(1, 3)), cos_recip(Fraction(2, 5))
    base = Poly.atom(a).add(Poly.atom(b).scale(-2.0)).add(
        Poly.scale_mono(F0, Fraction(1)).scale(0.5))
    return a, base.pow_int(5)


def test_a_second_sorted_terms_call_sorts_nothing(monkeypatch):
    _, p = _sample_poly()
    keyed = []
    key = scales.mono_sort_key
    monkeypatch.setattr(scales, "mono_sort_key",
                        lambda m: keyed.append(m) or key(m))
    first = p.sorted_terms()
    assert len(keyed) == len(p.terms) > 10
    assert p.sorted_terms() is first    # the stored order, not a copy
    repr(p)
    p.grouped_by_scale()
    assert len(keyed) == len(p.terms)


def test_an_atom_prints_its_key_once(monkeypatch):
    printed = []
    cls = nets.SinRecipPow
    monkeypatch.setattr(cls, "__repr__", lambda self, _r=cls.__repr__:
                        printed.append(self) or _r(self))
    a, p = _sample_poly()
    repr(p)
    holding = sum(any(x is a for x, _ in m[2]) for m in p.terms)
    assert holding > 10
    assert sum(x is a for x in printed) == 1


def _hashed_fractions(monkeypatch) -> list:
    """The Fractions hashed from now on, as ``Fraction.__hash__`` meets
    them."""
    hashed = []
    h = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: hashed.append(self) or h(self))
    return hashed


def test_a_product_hashes_each_product_monomial_once(monkeypatch):
    # monomials of pure scale with non-integral k and q, whose sums stay
    # non-integral, hash two Fractions each: once per product, once more
    # per monomial of the result; 12 products, 6 monomials
    k = Fraction(1, 3)
    p = Poly({(k, Fraction(3 * i + 1, 3), ()): 1.0 + i for i in range(4)})
    q = Poly({(k, Fraction(3 * j + 1, 3), ()): 2.0 + j for j in range(3)})
    hashed = _hashed_fractions(monkeypatch)
    out = p.mul(q)
    assert len(out.terms) == 6
    assert all(m[1].denominator == 3 for m in out.terms)
    assert len(hashed) == 2 * (len(p.terms) * len(q.terms) + len(out.terms))


def test_a_product_of_integral_exponents_hashes_no_fraction(monkeypatch):
    # integral exponents are ints in normal form, however they are given
    osc = sin_recip(Fraction(1, 3))
    hashed = _hashed_fractions(monkeypatch)
    p = Poly({})
    for i in range(4):
        p = p.add(Poly.scale_mono(Fraction(i % 2), Fraction(i)).scale(1.0 + i))
    q = Poly.atom(osc).mul(Poly.atom(osc)).add(
        Poly.scale_mono(F0, Fraction(-1)))
    out = p.mul(q).mul(p)
    assert len(out.terms) > 12
    assert hashed == []


def test_dividing_by_the_unit_monomial_builds_nothing():
    # RatForm.simplify divides by the denominator's one monomial, which
    # over the polynomial fragment is the unit
    _, p = _sample_poly()
    assert p.divide_mono(MONO_ONE) is p


def _in_normal_form(e) -> bool:
    return type(e) is int or (type(e) is Fraction and e.denominator > 1)


def test_exponents_are_normal_inside_scales_and_fractions_outside():
    # inside: every k, q and atom power of the normal forms rat and
    # _rat_abs build is an int, or a Fraction with denominator above 1;
    # outside: the PowQ exponents of canonical nets, the envelopes info
    # and the normal-form bounds give, and valuations carry Fractions
    def envs(i):
        for e in (i.upper, i.lower, *(a and a.env for a in (
                i.lower_seq, i.small_seq))):
            if e is not None:
                yield e

    # quotients whose numerator and denominator lead with integral scales
    for q in (-2, 3):
        v = valuation(nets.mul(nets.powq(nets.EPS, Fraction(q)),
                               nets.inv(nets.add(1.0, nets.EPS))))
        assert v.v == q and type(v.v) is Fraction, v
    exps = envs_seen = powqs = 0
    for seed in range(40):
        for tier in Tier:
            for depth in (3, 4, 5):
                x = random_net(seed, tier, depth)
                for r in (rat(x), _rat_abs(x)):
                    for p in (r.num, r.den):
                        for k, q, atoms in p.terms:
                            found = (k, q, *(pw for _, pw in atoms))
                            assert all(map(_in_normal_form, found)), found
                            exps += len(found)
                        for node in nets.iter_nodes(scales.canonical_net(p)):
                            if isinstance(node, nets.PowQ):
                                assert type(node.q) is Fraction
                                powqs += 1
                    bounds = [e for e in (rat_upper(r), rat_lower(r)) if e]
                    atoms = [a for p in (r.num, r.den) for m in p.terms
                             for a, _ in m[2]]
                    for node in [*nets.iter_nodes(x), *atoms]:
                        bounds += envs(info(node))
                    for e in bounds:
                        assert type(e.q) is Fraction, e
                    envs_seen += len(bounds)
                v = valuation(x)
                if v is not None and v.kind == "finite":
                    assert type(v.v) is Fraction, v
    assert exps > 5000 and envs_seen > 5000 and powqs > 100
