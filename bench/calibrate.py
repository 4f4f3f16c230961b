"""A fixed pure-Python task that scales the host's speed out of timings.

The benchmark runs on shared 2-core hosts whose speed drifts by up to 2x
within a minute, which no amount of repetition averages out.  Every
timed region is bracketed by this task, and a time t is reported as
t * reference / (the task's duration around it): the time the work
would take on a host where the task takes `reference`.  The task does
what gnum's engine does most (build and hash frozen-dataclass trees,
memoise on them, Fraction arithmetic, float math in a recursive walk)
and imports nothing from gnum, so a change to gnum cannot move it.

Work inside one interpreter is bracketed by `calibrate()`; work that
starts interpreters (CLI commands, set-up probes) by a fresh interpreter
running this file, timed from outside, which also tracks the host's
process start-up cost.

    python3 bench/calibrate.py      # the task in a fresh interpreter
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

# durations on the reference host (2-core sandbox): calibrate() in a
# running interpreter, and a fresh interpreter running this file
REFERENCE_S = 0.05
REFERENCE_SPAWN_S = 0.12


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple
    q: Fraction


def _build(rng: random.Random, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.2:
        return _Node(rng.choice("xcs"), (),
                     Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return _Node(rng.choice("+*pa"), (_build(rng, depth - 1),
                                     _build(rng, depth - 1)),
                 Fraction(rng.randint(-3, 3), 2))


def _eval(node: _Node, x: float, memo: dict) -> float:
    key = (node, x)
    if key in memo:
        return memo[key]
    if node.op == "x":
        v = x
    elif node.op == "c":
        v = float(node.q)
    elif node.op == "s":
        v = math.sin(1.0 / x)
    else:
        a, b = (_eval(k, x, memo) for k in node.kids)
        if node.op == "+":
            v = a + b
        elif node.op == "*":
            v = a * b
        elif node.op == "p":
            v = abs(a) ** float(node.q) if a else 0.0
        else:
            v = min(abs(a), abs(b))
    memo[key] = v
    return v


def calibrate() -> float:
    """Seconds the fixed task takes right now."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    trees = [_build(rng, 6) for _ in range(5)]
    memo = {}
    total = Fraction(0)
    for tree in trees:
        for i in range(20):
            _eval(tree, 10.0 ** (-6.0 * i / 19), memo)
        total += tree.q
    return time.perf_counter() - t0


class Clock:
    """Scaled op timings: `add` each op's raw seconds; the calibration
    `cal` runs before the first op and after every `every_s` seconds of
    ops, and each op is scaled by the mean of the calibrations around it
    relative to `reference`."""

    def __init__(self, cal=calibrate, reference: float = REFERENCE_S,
                 every_s: float = 0.25):
        self.cal, self.reference, self.every_s = cal, reference, every_s
        self.cals = [cal()]
        self.raw = []            # (index of the calibration before, seconds)
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append((len(self.cals) - 1, seconds))
        self._since += seconds
        if self._since >= self.every_s:
            self.cals.append(self.cal())
            self._since = 0.0

    def finish(self):
        """Scaled seconds of every op added, in order."""
        if self._since > 0 or len(self.cals) < 2:
            self.cals.append(self.cal())
        return [t * factor(self.cals[i], self.cals[i + 1], self.reference)
                for i, t in self.raw]


def factor(before: float, after: float,
           reference: float = REFERENCE_S) -> float:
    return reference / ((before + after) / 2.0)


if __name__ == "__main__":
    calibrate()
