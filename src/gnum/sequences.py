"""Computable strictly decreasing sequences eps_1 > eps_2 > ... -> 0.

These model characteristic sets S = {eps_j} with 0 in the closure of S:
bump-train schedules, spike/indicator supports and zero sequences of
oscillators; witness searches add their own
(``constructions.CharsetPoints``).  Every rule is immutable data;
``value(j)`` is a pure function of the rule and the index.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, SearchExhausted
from .records import Record

PI = math.pi


class SequenceRule:
    """Base class.  Indices are 1-based; value(j) is strictly decreasing
    in j with limit 0."""

    def value(self, j: int) -> float:
        raise NotImplementedError

    def index_near(self, eps: float) -> int:
        """Some index j whose value is close to eps (used as a search
        anchor; callers probe j-2 .. j+2)."""
        raise NotImplementedError

    def values(self, n: int, start: int = 1):
        """value(j) for j = start..n; fewer where a finite rule ends."""
        out = []
        for j in range(start, n + 1):
            try:
                out.append(self.value(j))
            except SearchExhausted:
                break
        return out

    def gap(self, j: int) -> float:
        return self.value(j) - self.value(j + 1)


class Geometric(SequenceRule, Record):
    """eps_j = ratio**j, ratio in (0,1)."""

    ratio: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise DomainError(f"geometric ratio must be in (0,1), got {self.ratio}")
        object.__setattr__(self, "_ratio", float(self.ratio))

    def value(self, j: int) -> float:
        return self._ratio ** j

    def index_near(self, eps: float) -> int:
        return max(1, round(math.log(eps) / math.log(self._ratio)))


class Harmonic(SequenceRule, Record):
    """eps_j = 1/j."""

    def value(self, j: int) -> float:
        return 1.0 / j

    def index_near(self, eps: float) -> int:
        return max(1, round(1.0 / eps))


class HarmonicMidpoints(SequenceRule, Record):
    """eps_j = (2j+1)/(2j(j+1)), the midpoint of 1/j and 1/(j+1)."""

    def value(self, j: int) -> float:
        return (2 * j + 1) / (2 * j * (j + 1))

    def index_near(self, eps: float) -> int:
        return max(1, round(1.0 / eps))


class PiSequence(SequenceRule, Record):
    """eps_j = ((mult*j + offset) * pi) ** (-1/power).

    Zeros and extrema of sin/cos(1/eps**power) live on these sequences:
    sin zeros  -> mult=1, offset=0;   sin=+1 -> mult=2, offset=1/2;
    cos zeros  -> mult=1, offset=1/2; cos=+1 -> mult=2, offset=0; etc.
    """

    mult: Fraction = Fraction(1)
    offset: Fraction = Fraction(0)
    power: Fraction = Fraction(1)

    def __post_init__(self):
        if self.mult <= 0 or self.power <= 0:
            raise DomainError("PiSequence needs mult > 0 and power > 0")
        if self.mult * 1 + self.offset <= 0:
            raise DomainError("PiSequence first term must be positive")
        object.__setattr__(self, "_mult", float(self.mult))
        object.__setattr__(self, "_offset", float(self.offset))
        object.__setattr__(self, "_power", float(self.power))

    def value(self, j: int) -> float:
        t = (self._mult * j + self._offset) * PI
        return t ** (-1.0 / self._power)

    def index_near(self, eps: float) -> int:
        t = eps ** (-self._power)
        return max(1, round((t / PI - self._offset) / self._mult))


class Midpoints(SequenceRule, Record):
    """Midpoints of consecutive points of another rule (lies in the gaps)."""

    of: SequenceRule

    def value(self, j: int) -> float:
        return 0.5 * (self.of.value(j) + self.of.value(j + 1))

    def index_near(self, eps: float) -> int:
        return self.of.index_near(eps)
