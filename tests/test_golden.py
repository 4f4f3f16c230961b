"""Behaviour lock: decisions, witness data and construction outputs,
printed with `repr` so every float is compared bit for bit.

The fixture `golden.txt` is regenerated only by running this module as
a script with an explicit flag:

    PYTHONPATH=src python tests/test_golden.py --regenerate

and the diff of the fixture is reviewed before it is committed.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

from gnum import asymptotics as A
from gnum.constructions import (characteristic_set, construct_zero_divisor,
                                interleaved_trains)
from gnum.dsl import parse, print_net
from gnum.harness import random_net
from gnum.ideals import dip_forcing_data
from gnum.nets import Tier, bump_train, gnumber
from gnum.sequences import Geometric

FIXTURE = Path(__file__).with_name("golden.txt")

SEEDS = range(40)
DEPTHS = (3, 4, 5)
PAIR_SEEDS = tuple(range(40)) + (73, 123)
PAIR_OFFSET = 5000
CLAIMS = (("moderate", A.is_moderate), ("negligible", A.is_negligible),
          ("strictly_nonzero", A.is_strictly_nonzero))


def _tri(tri) -> str:
    w = tri.witness
    if w is None:
        return f"{tri!r} -"
    return f"{tri!r} {w.kind} {w.data!r}"


def golden_lines():
    out = []
    for seed in SEEDS:
        for tier in Tier:
            for depth in DEPTHS:
                x = random_net(seed, tier, depth)
                uid = f"net {seed} {tier} {depth}"
                out.append(f"{uid} {print_net(x)}")
                for claim, fn in CLAIMS:
                    out.append(f"{uid} {claim}: {_tri(fn(x))}")
                out.append(f"{uid} valuation: {A.valuation(x)!r}")
    for seed in PAIR_SEEDS:
        x = random_net(seed, Tier.Smooth, 3)
        y = random_net(seed + PAIR_OFFSET, Tier.Smooth, 3)
        out.append(f"pair {seed} leq: {_tri(A.leq(x, y))}")
    cs = characteristic_set(*interleaved_trains(F(1, 4)))
    out.append(f"charset points: {[cs.points.value(j) for j in range(1, 17)]!r}")
    out.append(f"charset orders: {cs.order_schedule!r}")
    dip = dip_forcing_data(gnumber(bump_train(Geometric(F(1, 2)))))
    out.append(f"dip levels: {dip.levels!r}")
    net, tier = parse("sin(1/eps)")
    zd = construct_zero_divisor(gnumber(net, tier))
    out.append(f"zerodiv widths: {zd.widths!r}")
    return out


def test_golden_corpus_unchanged():
    want = FIXTURE.read_text().splitlines()
    got = golden_lines()
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} lines differ, first: {diff[0]}"
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden.py --regenerate")
    FIXTURE.write_text("\n".join(golden_lines()) + "\n")
    print(f"wrote {FIXTURE}")
