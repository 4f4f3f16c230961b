"""Records (``gnum.records.Record``) against frozen dataclasses.

Every record class, each node type and every other record of the
package, is checked against a ``dataclasses.dataclass(frozen=True)`` twin
declared in the test with the record's fields, annotations and defaults:
the same repr, ``==`` (nan fields included), ``!=`` against another
type, hash, signature, keyword binding and defaults, the same error on
assignment and deletion, and the same results after pickle, copy and
replace.
"""

import copy
import dataclasses
import functools
import inspect
import math
import pickle
from fractions import Fraction as F

import pytest

import gnum
from gnum import nets
from gnum.asymptotics import DecisionTri, Valuation, WitnessRecord
from gnum.constructions import (AnnihilatorSplit, CharacteristicSet,
                                CharsetPoints, GelfandWitnesses, IdemVerdict,
                                ZeroDivisorReport)
from gnum.dsl import Token
from gnum.harness import GridSpec, ReplayReport
from gnum.ideals import DipForcingData, FinIdeal, RootFamilyIdeal
from gnum.nets import (EPS, Const, ConstHeights, DecayHeights, GapFraction,
                       GNumber, Indicator, ShrunkWidths, SmallCert,
                       SpikeTrain, Tier, add, gnumber, mul)
from gnum.profiles import AlongSeq, Env, Info
from gnum.records import Record
from gnum.scales import Poly, RatForm
from gnum.sequences import (Geometric, Harmonic, HarmonicMidpoints,
                            Midpoints, PiSequence)
from gnum.smoothing import RefutationWitness, SmoothingReport
from test_nets import _one_node_of_each_type


def _other_records():
    g = gnumber(add(EPS, Const(1.0)))
    env = Env("pow", F(1, 2), 2.0)
    witness = WitnessRecord("exponent-bound", ("eps", F(1), 0.5))
    return [
        ConstHeights(-2.0), DecayHeights(F(3, 2), F(-1, 3)),
        GapFraction(F(1, 8)), ShrunkWidths((0.25, 0.125), F(1, 3)),
        SmallCert(mul(EPS, EPS), F(1, 2), F(2), 8, True),
        GNumber(EPS, Tier.Continuous),
        Geometric(F(1, 3)), Harmonic(), HarmonicMidpoints(),
        PiSequence(F(2), F(1, 2), F(3)), Midpoints(Geometric()),
        SmoothingReport(g, 0.125, ((2, "grid"),)),
        RefutationWitness("crossing", 3, 0.25, 0.5 + 0j),
        IdemVerdict("nontrivial-idempotent", Harmonic(), "split"),
        ZeroDivisorReport(g, Harmonic(), ((0.5, 1.0),), (0.125,)),
        GelfandWitnesses(g, g, g, g), AnnihilatorSplit(g, 0.5),
        CharacteristicSet(Harmonic(), (F(1), F(2))),
        CharsetPoints((0.5, 0.25)),
        GridSpec(64, 1e-4), ReplayReport("moderate", False, 2.5, 1e-3, "x"),
        Token("num", "1.5", 1, 3, 6),
        env, AlongSeq(Harmonic(), env),
        Info(True, env, None, AlongSeq(Geometric(), env)),
        witness, DecisionTri(True, witness, "symbolic"),
        Valuation("finite", F(1, 2)), Valuation("plus-infinity"),
        FinIdeal((g, g)), RootFamilyIdeal(g, 4),
        DipForcingData(((0, 0.5, 0.25),)),
        RatForm(Poly.const(1.0), Poly.const(2.0))]


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("gnum."):
            yield sub
        yield from _record_types(sub)


ALL = _one_node_of_each_type() + _other_records()


def _declared(cls):
    """The annotations of cls and its bases, base first, as a dataclass
    collects its fields."""
    out = {}
    for c in reversed(cls.__mro__):
        out.update(vars(c).get("__annotations__", {}))
    return out


@functools.cache
def _twin(cls):
    """A frozen dataclass with the record's name, fields, annotations and
    defaults, and the repr the record's class defines, if it does."""
    fields = [(n, a) if not hasattr(cls, n) else
              (n, a, dataclasses.field(default=getattr(cls, n)))
              for n, a in _declared(cls).items()]
    space = {k: v for k, v in vars(cls).items() if k == "__repr__"}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=space,
                                      frozen=cls is not ReplayReport)


def twin(rec):
    """rec's values in an instance of the twin of its class."""
    return _twin(type(rec))(*[getattr(rec, n) for n in type(rec)._fields])


def test_every_record_type_is_checked():
    nodes = {type(n) for n in _one_node_of_each_type()}
    assert {type(r) for r in ALL} == set(_record_types()) - {nets.NetExpr}
    assert len(nodes) == 22 and len(ALL) - len(nodes) >= 32


@pytest.mark.parametrize("rec", ALL, ids=lambda r: type(r).__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(rec):
    cls, t = type(rec), twin(rec)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(t))
    assert repr(rec) == repr(t)
    # equal to a rebuilt copy, unequal to a record of another type
    again = cls(*[getattr(rec, n) for n in cls._fields])
    other = Env("none") if cls is not Env else Harmonic()
    assert (rec == again) is (t == twin(again)) is True
    assert rec.__eq__(other) is t.__eq__(other) is NotImplemented
    assert rec != other and not rec == other
    if cls is ReplayReport:         # mutable: no hash, fields assignable
        assert cls.__hash__ is None is type(t).__hash__
        rec.detail = "y"
        assert rec.detail == "y"
        del rec.detail
        rec.detail = "x"
    else:
        assert hash(rec) == hash(t) == hash(again)
        for name in (*cls._fields, "extra"):
            for act in (lambda o: setattr(o, name, 1),
                        lambda o: delattr(o, name)):
                for o in (rec, t):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        act(o)


@pytest.mark.parametrize("cls", sorted({type(r) for r in ALL},
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_a_record_has_the_signature_of_its_twin(cls):
    rec = next(r for r in ALL if type(r) is cls)
    sig = inspect.signature(cls)
    assert sig == inspect.signature(type(twin(rec)))
    values = {n: getattr(rec, n) for n in cls._fields}
    # all by keyword, and the fields with defaults left out
    assert cls(**values) == rec
    given = [n for n, p in sig.parameters.items() if p.default is p.empty]
    short = cls(**{n: values[n] for n in given})
    for n, p in sig.parameters.items():
        assert getattr(short, n) == (values[n] if n in given else p.default)
    with pytest.raises(TypeError):
        cls(**values, unknown=1)


@pytest.mark.parametrize("rec", ALL, ids=lambda r: type(r).__name__)
def test_pickle_copy_and_replace_agree_with_the_twin(rec):
    t = twin(rec)
    for out in (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                copy.deepcopy(rec), rec._replace()):
        assert type(out) is type(rec) and repr(out) == repr(rec)
        assert (out == rec) is (twin(out) == t)
        if type(rec) is not ReplayReport:
            assert hash(out) == hash(twin(out))
    last = type(rec)._fields[-1:]
    for name in last:
        value = getattr(rec, name)
        assert twin(rec._replace(**{name: value})) == dataclasses.replace(
            t, **{name: value})
    with pytest.raises(TypeError):
        rec._replace(unknown=1)


def test_nan_fields_compare_as_in_a_dataclass():
    # a tuple compares an item with itself by identity: the same nan
    # object is equal, another nan object is not
    a = Const(math.nan)
    for b in (a, copy.copy(a), Const(math.nan), Const(float("nan"))):
        assert (a == b) is (twin(a) == twin(b))
        assert (a != b) is (twin(a) != twin(b))
    assert a == copy.copy(a) and a != Const(float("nan"))


def test_replace_rebuilds_the_derived_attributes():
    # _replace goes through __init__: normalisation, hash and facts
    c = Const(1.0)._replace(c=2)
    assert c == Const(2.0) and hash(c) == hash((2.0,))
    assert not Const(1.0)._replace(c=math.inf)._facts.finite
    info = Info(True, Env("pow"))
    assert info._replace(nonneg=False) == Info(False, Env("pow"))
    assert Indicator(Harmonic()) != SpikeTrain(Harmonic())
    with pytest.raises(gnum.TierError):
        GNumber(EPS, Tier.Smooth)._replace(net=nets.indicator(Harmonic()))
