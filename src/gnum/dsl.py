"""Text grammar for nets: tokenizer, recursive-descent parser, and the
canonical printer (parse . print == identity on the grammar fragment).

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT '/' INT ')'
    atom     := NUMBER | 'i' | 'eps' | 'exp(-1/eps)'
              | 'sin(1/eps' ['^' exponent] ')' | 'cos(1/eps' ['^' exponent] ')'
              | 'abs(' expr ')' | 'min(' expr ',' expr ')'
              | 'max(' expr ',' expr ')' | 'root(' expr ',' INT ')'
              | 'bumptrain(' schedule [',' heights] ')'
              | 'indicator(' schedule ')' | 'spikes(' schedule ')'
              | '(' expr ')' | '-' atom
    schedule := 'geo(' fraction ')' | 'harmonic' | 'harmonic_mid'
              | 'pizeros(' fraction ')'
    heights  := 'ones' | 'const(' NUMBER ')' | 'decay(' fraction ',' fraction ')'
    fraction := ['-'] INT ['/' INT]

Exponent -1 on a non-power atom produces an inverse node, which is only
admissible on certified nowhere-zero operands; fractional exponents need
nonnegative bases.  Tier inference returns the most restrictive tier
admitting the parsed tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from . import nets
from .errors import ParseError
from .nets import (AbsNode, Add, BumpTrain, Const, ConstHeights, CosRecipPow,
                   DecayHeights, Eps, ExpNegRecip, GapFraction, Indicator,
                   Inv, MaxNode, MinNode, Mul, Neg, NetExpr, PowQ, RootN,
                   SinRecipPow, SpikeTrain, Tier, minimal_tier)
from .records import Record
from .sequences import (Geometric, Harmonic, HarmonicMidpoints, PiSequence,
                        SequenceRule)

F = Fraction
_DIGITS = "0123456789"  # str.isdigit also holds for '²' and '٣'


class Token(Record):
    kind: str       # 'num' | 'name' | one of + - * ^ ( ) , / | 'eof'
    text: str
    line: int
    col: int
    end_col: int


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            toks.append(Token("num", text[i:j], line, col, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if c in "+-*^(),/":
            toks.append(Token(c, c, line, col, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col, ())
    toks.append(Token("eof", "", line, col, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def _err(self, expected) -> ParseError:
        t = self.peek()
        if t.kind == "eof":
            prev = self.toks[self.pos - 1] if self.pos else t
            return ParseError(
                f"unexpected end of input, expected {' or '.join(expected)}",
                prev.line, prev.end_col, expected)
        return ParseError(
            f"unexpected {t.text!r}, expected {' or '.join(expected)}",
            t.line, t.col, expected)

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        if self.peek().kind != kind:
            raise self._err((what or f"'{kind}'",))
        return self.next()

    # -- grammar -----------------------------------------------------------

    def parse_expr(self) -> NetExpr:
        out = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            out = nets.add(out, rhs) if op == "+" else nets.add(out,
                                                                nets.neg(rhs))
        return out

    def parse_term(self) -> NetExpr:
        out = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            out = nets.mul(out, self.parse_factor())
        return out

    def parse_factor(self) -> NetExpr:
        if self.peek().kind == "-":
            self.next()
            return nets.neg(self.parse_factor())
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            q = self.parse_exponent()
            return self._apply_power(base, q)
        return base

    def _apply_power(self, base: NetExpr, q: Fraction) -> NetExpr:
        if q == -1 and not (isinstance(base, Eps) or nets.positive_net(base)):
            return nets.inv(base)
        return nets.powq(base, q)

    def parse_exponent(self) -> Fraction:
        if self.peek().kind == "(":
            self.next()
            num = self._signed_int()
            self.expect("/", "'/'")
            den = self._uint()
            self.expect(")", "')'")
            return F(num, den)
        return F(self._signed_int())

    def _signed_int(self) -> int:
        if self.peek().kind == "-":
            self.next()
            return -self._uint()
        return self._uint()

    def _uint(self) -> int:
        t = self.expect("num", "integer")
        if "." in t.text:
            raise ParseError("expected an integer", t.line, t.col,
                             ("integer",))
        return int(t.text)

    def parse_fraction(self) -> Fraction:
        num = self._signed_int()
        if self.peek().kind == "/":
            self.next()
            return F(num, self._uint())
        return F(num)

    def parse_atom(self) -> NetExpr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Const(float(t.text))
        if t.kind == "(":
            self.next()
            out = self.parse_expr()
            self.expect(")", "')'")
            return out
        if t.kind != "name":
            raise self._err(("expression",))
        return self._call("name")

    def _call(self, what: str):
        """``name`` or ``name(arg, ...)`` for a name in ``_CALLS[what]``,
        whose entry gives the kind of each argument (a trailing ``?``: it
        may be left out with its comma) and the constructor of the node."""
        t = self.expect("name", what)
        table = _CALLS[what]
        if t.text not in table:
            raise ParseError(f"unknown {what} {t.text!r}", t.line, t.col,
                             tuple(table))
        kinds, make = table[t.text]
        args = []
        if kinds:
            self.expect("(", "'('")
            for k, kind in enumerate(kinds):
                if k and kind.endswith("?") and self.peek().kind != ",":
                    break
                if k:
                    self.expect(",", "','")
                args.append(self._arg(kind.rstrip("?"), t.text))
            self.expect(")", "')'")
        return make(*args)

    def _arg(self, kind: str, name: str):
        if kind == "expr":
            return self.parse_expr()
        if kind == "int":
            return self._uint()
        if kind == "frac":
            return self.parse_fraction()
        if kind == "num":
            return float(self.expect("num", "number").text)
        if kind in _CALLS:
            return self._call(kind)
        # '-1/eps' of exp(...); '1/eps' ['^' exponent] of sin(...), cos(...)
        if name == "exp":
            self.expect("-", "'-'")
        one = self.expect("num", "'1'")
        if one.text != "1":
            where = "exp(-1/eps)" if name == "exp" else f"{name}(1/eps...)"
            raise ParseError(f"expected '1' in {where}", one.line, one.col,
                             ("1",))
        self.expect("/", "'/'")
        t = self.peek()
        if t.kind != "name" or t.text != "eps":
            raise self._err(("'eps'",))
        self.next()
        if name != "exp" and self.peek().kind == "^":
            self.next()
            return self.parse_exponent()
        return F(1)


# name -> (argument kinds, constructor) for atoms, schedules and heights;
# the order of each table is the order an unknown name's error lists
_CALLS = {
    "name": {
        "eps": ((), lambda: nets.EPS),
        "i": ((), lambda: Const(1j)),
        "exp": (("1/eps",), lambda _: ExpNegRecip()),
        "sin": (("1/eps",), SinRecipPow),
        "cos": (("1/eps",), CosRecipPow),
        "abs": (("expr",), AbsNode),
        "min": (("expr", "expr"), nets.minn),
        "max": (("expr", "expr"), nets.maxn),
        "root": (("expr", "int"), nets.rootn),
        "bumptrain": (("schedule", "heights?"),
                      lambda s, h=None: nets.bump_train(s, heights=h)),
        "indicator": (("schedule",), Indicator),
        "spikes": (("schedule",), SpikeTrain),
    },
    "schedule": {
        "geo": (("frac",), Geometric),
        "harmonic": ((), Harmonic),
        "harmonic_mid": ((), HarmonicMidpoints),
        "pizeros": (("frac",), lambda p: PiSequence(F(1), F(0), p)),
    },
    "heights": {
        "ones": ((), lambda: ConstHeights(1.0)),
        "const": (("num",), ConstHeights),
        "decay": (("frac", "frac"), DecayHeights),
    },
}


def parse(text: str) -> Tuple[NetExpr, Tier]:
    """Parse a net expression; returns the tree and its inferred tier."""
    p = _Parser(text)
    out = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col,
                         ("end of input",))
    return out, minimal_tier(out)


# --------------------------------------------------------------------------
# canonical printer
# --------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_ATOM = 0, 1, 2, 3


def _fmt_num(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"constant {v!r} is outside the printable grammar")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _fmt_exp(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator}/{q.denominator})"


def _sched_str(s: SequenceRule) -> str:
    if isinstance(s, Geometric):
        return f"geo({_fmt_frac(s.ratio)})"
    if isinstance(s, Harmonic):
        return "harmonic"
    if isinstance(s, HarmonicMidpoints):
        return "harmonic_mid"
    if isinstance(s, PiSequence) and s.mult == 1 and s.offset == 0:
        return f"pizeros({_fmt_frac(s.power)})"
    raise ValueError(f"schedule {s!r} is outside the printable grammar")


def _heights_str(h) -> Optional[str]:
    if isinstance(h, ConstHeights):
        if h.c == 1.0:
            return None
        return f"const({_fmt_num(h.c)})"
    if isinstance(h, DecayHeights):
        return f"decay({_fmt_frac(h.slope)}, {_fmt_frac(h.offset)})"
    raise ValueError(f"heights {h!r} are outside the printable grammar")


def print_net(net: NetExpr) -> str:
    """Canonical text form; parse(print_net(x))[0] == x structurally for
    grammar-expressible trees."""
    return _pp(net, _LVL_ADD)


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _pp(net: NetExpr, lvl: int) -> str:
    if isinstance(net, Const):
        c = net.c
        if isinstance(c, complex):
            re, im = c.real, c.imag
            if re == 0.0:
                s = "i" if im == 1.0 else f"{_fmt_num(im)}*i"
                return _paren(s, lvl > _LVL_MUL and im != 1.0)
            s = f"{_fmt_num(re)} + {_fmt_num(im)}*i" if im >= 0 else \
                f"{_fmt_num(re)} - {_fmt_num(-im)}*i"
            return f"({s})"
        if c < 0:
            return _paren(f"-{_fmt_num(-c)}", lvl > _LVL_POW)
        return _fmt_num(c)
    if isinstance(net, Eps):
        return "eps"
    if isinstance(net, ExpNegRecip):
        return "exp(-1/eps)"
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        fn = "sin" if isinstance(net, SinRecipPow) else "cos"
        return f"{fn}(1/eps)" if net.p == 1 else \
            f"{fn}(1/eps^{_fmt_exp(net.p)})"
    if isinstance(net, Add):
        l, r = net.l, net.r
        if isinstance(r, Neg):
            s = f"{_pp(l, _LVL_ADD)} - {_pp(r.x, _LVL_MUL)}"
        else:
            s = f"{_pp(l, _LVL_ADD)} + {_pp(r, _LVL_MUL)}"
        return _paren(s, lvl > _LVL_ADD)
    if isinstance(net, Mul):
        s = f"{_pp(net.l, _LVL_MUL)}*{_pp(net.r, _LVL_POW)}"
        return _paren(s, lvl > _LVL_MUL)
    if isinstance(net, Neg):
        return _paren(f"-{_pp(net.x, _LVL_POW)}", lvl > _LVL_POW)
    if isinstance(net, Inv):
        return f"{_pp(net.x, _LVL_ATOM)}^-1"
    if isinstance(net, PowQ):
        return f"{_pp(net.base, _LVL_ATOM)}^{_fmt_exp(net.q)}"
    if isinstance(net, AbsNode):
        return f"abs({_pp(net.x, _LVL_ADD)})"
    if isinstance(net, MinNode):
        return f"min({_pp(net.l, _LVL_ADD)}, {_pp(net.r, _LVL_ADD)})"
    if isinstance(net, MaxNode):
        return f"max({_pp(net.l, _LVL_ADD)}, {_pp(net.r, _LVL_ADD)})"
    if isinstance(net, RootN):
        return f"root({_pp(net.x, _LVL_ADD)}, {net.n})"
    if isinstance(net, BumpTrain):
        if not isinstance(net.widths, GapFraction) or net.small_cert:
            raise ValueError("bump train widths outside the printable grammar")
        h = _heights_str(net.heights)
        inner = _sched_str(net.schedule)
        if h is not None:
            inner += f", {h}"
        return f"bumptrain({inner})"
    if isinstance(net, SpikeTrain):       # an Indicator subclass: first
        return f"spikes({_sched_str(net.s)})"
    if isinstance(net, Indicator):
        return f"indicator({_sched_str(net.s)})"
    raise ValueError(f"{type(net).__name__} is outside the printable grammar")
