"""Grammar, round-trips, positioned errors, and the CLI surface."""

import argparse
import json
import math
import os
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from gnum import cli, dsl
from gnum.errors import DomainError, ParseError, TierError
from gnum.dsl import parse, print_net
from gnum.harness import random_net
from gnum.nets import (EPS, AbsNode, Add, Const, CosRecipPow, Eps,
                       ExpNegRecip, Indicator, MinNode, PowQ, SinRecipPow,
                       SpikeTrain, Tier, absn, add, minn, mul, powq,
                       sin_recip)
from gnum.sequences import Geometric, Harmonic


# -- parsing -----------------------------------------------------------------

def test_parse_power_sum():
    net, tier = parse("eps^-2 + sin(1/eps)")
    assert net == Add(PowQ(Eps(), F(-2)), SinRecipPow(F(1)))
    assert tier == Tier.Smooth


def test_parse_abs_infers_continuous():
    net, tier = parse("abs(sin(1/eps))")
    assert net == AbsNode(SinRecipPow(F(1)))
    assert tier == Tier.Continuous


def test_parse_indicator_infers_arbitrary():
    net, tier = parse("indicator(geo(1/2))")
    assert net == Indicator(Geometric(F(1, 2)))
    assert tier == Tier.Arbitrary


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse("eps^(1/2")
    assert ei.value.column == 8
    assert "')'" in ei.value.expected


def test_parse_reads_only_ascii_digits():
    for text, column in (("eps^²", 5), ("eps + ٣", 7)):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert "unexpected character" in str(ei.value)
        assert (ei.value.line, ei.value.column) == (1, column)


def test_parse_error_cases():
    cases = [
        ("", 1),
        ("eps +", 1),
        ("min(eps, )", 1),
        ("sin(2/eps)", 1),
        ("bumptrain(geo(1/2), nope)", 1),
        ("eps ^ eps", 1),
        ("abs eps", 1),
        ("unknownword", 1),
    ]
    for text, _ in cases:
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.line >= 1 and ei.value.column >= 1
        assert ei.value.expected  # carries the expected-token set


def test_parse_fractional_exponent():
    net, _ = parse("eps^(3/2)")
    assert net == PowQ(Eps(), F(3, 2))
    net, _ = parse("eps^(-1/2)")
    assert net == PowQ(Eps(), F(-1, 2))


def test_parse_division_guard():
    # ^-1 is only admitted on certified nowhere-zero subexpressions
    with pytest.raises(DomainError):
        parse("sin(1/eps)^-1")
    net, _ = parse("(2 + exp(-1/eps))^-1")
    assert net is not None


def test_parse_oscillator_powers():
    net, _ = parse("sin(1/eps^2)")
    assert net == SinRecipPow(F(2))
    net, _ = parse("cos(1/eps^(1/2))")
    assert net == CosRecipPow(F(1, 2))


def test_parse_complex_atom():
    net, _ = parse("2*i")
    assert net == Const(2j)


def test_parse_spikes_and_trains():
    net, tier = parse("spikes(harmonic)")
    assert net == SpikeTrain(Harmonic()) and tier == Tier.Arbitrary
    net, tier = parse("bumptrain(geo(1/2), decay(1, 0))")
    assert tier == Tier.Smooth
    net, tier = parse("min(eps, abs(cos(1/eps)))")
    assert isinstance(net, MinNode) and tier == Tier.Continuous


# -- printing / round-trip ----------------------------------------------------

def test_print_parse_examples():
    for text in ["eps^-2 + sin(1/eps)", "abs(sin(1/eps))",
                 "min(eps, 1) - max(eps, 2)", "root(abs(sin(1/eps)), 3)",
                 "bumptrain(geo(1/3))", "-2*eps + 1.5"]:
        net, _ = parse(text)
        again, _ = parse(print_net(net))
        assert again == net, text


def test_print_parse_schedules_heights_and_complex_constants():
    for text in ["bumptrain(pizeros(1/2))", "indicator(pizeros(3))",
                 "spikes(pizeros(2/3))", "bumptrain(geo(1/2), const(2.5))",
                 "bumptrain(harmonic, const(3))",
                 "bumptrain(harmonic_mid, const(0.001))",
                 "bumptrain(harmonic, decay(-1/2, 2))",
                 "i", "2*i", "-2*i", "(1 + 2*i)", "(1 - 2*i)", "(0.5 - 1*i)"]:
        net, _ = parse(text)
        assert print_net(net) == text
        assert parse(text)[0] == net
    # unit heights print as nothing
    assert print_net(parse("bumptrain(harmonic, const(1))")[0]) == \
        "bumptrain(harmonic)"
    for c in (1j, 2j, -2j, 1 + 2j, 1 - 2j, 0.5 - 1j, 1.5j):
        assert parse(print_net(Const(c)))[0] == Const(c)


def test_parse_errors_of_names_and_call_arguments():
    cases = [
        ("2 + foo", "unknown name 'foo'", 5,
         ("eps", "i", "exp", "sin", "cos", "abs", "min", "max", "root",
          "bumptrain", "indicator", "spikes")),
        ("bumptrain(geometric(1/2))", "unknown schedule 'geometric'", 11,
         ("geo", "harmonic", "harmonic_mid", "pizeros")),
        ("bumptrain(harmonic, flat)", "unknown heights 'flat'", 21,
         ("ones", "const", "decay")),
        ("bumptrain(harmonic, 2)", "unexpected '2', expected heights", 21,
         ("heights",)),
        ("spikes(1)", "unexpected '1', expected schedule", 8, ("schedule",)),
        ("exp(-2/eps)", "expected '1' in exp(-1/eps)", 6, ("1",)),
        ("exp(1/eps)", "unexpected '1', expected '-'", 5, ("'-'",)),
        ("cos(2/eps)", "expected '1' in cos(1/eps...)", 5, ("1",)),
        ("sin(1/x)", "unexpected 'x', expected 'eps'", 7, ("'eps'",)),
        ("exp(-1/eps^2)", "unexpected '^', expected ')'", 11, ("')'",)),
        ("root(eps, 2.5)", "expected an integer", 11, ("integer",)),
        ("eps^(-1.5/2)", "expected an integer", 7, ("integer",)),
        ("bumptrain(geo(1/2), decay(1 0))", "unexpected '0', expected ','",
         29, ("','",)),
        ("bumptrain(harmonic ones)", "unexpected 'ones', expected ')'", 20,
         ("')'",)),
        ("bumptrain(harmonic, const(x))", "unexpected 'x', expected number",
         27, ("number",)),
        ("min(eps", "unexpected end of input, expected ','", 7, ("','",)),
    ]
    for text, message, column, expected in cases:
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert str(ei.value).startswith(message), text
        assert (ei.value.line, ei.value.column) == (1, column), text
        assert tuple(ei.value.expected) == expected, text


def test_roundtrip_200_random_asts():
    tiers = [Tier.Smooth, Tier.Continuous, Tier.Arbitrary]
    mismatches = []
    for seed in range(200):
        ast = random_net(seed, tiers[seed % 3], 3)
        text = print_net(ast)
        back, tier = parse(text)
        if back != ast:
            mismatches.append((seed, text))
    assert not mismatches, mismatches[:3]


def test_print_rejects_non_grammar_nodes():
    from gnum.smoothing import smooth_approximate
    from gnum.nets import gnumber
    out = smooth_approximate(gnumber(absn(sin_recip(1)))).output.net
    with pytest.raises(ValueError):
        print_net(out)



def test_print_rejects_non_finite_constants():
    # the grammar has no nan or inf literal: the grammar's ValueError, in
    # a complex constant's parts too, and cli._plain falls back to repr
    for c in (math.nan, math.inf, -math.inf, complex(math.nan, 1.0),
              complex(1.0, math.inf), complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="outside the printable grammar"):
            print_net(Const(c))
    assert cli._plain(Const(math.inf)) == repr(Const(math.inf))

# -- CLI -----------------------------------------------------------------------

def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_classify_decided(capsys):
    code, out = run_cli(["classify", "eps^-2 + sin(1/eps)", "--grid", "120"],
                        capsys)
    assert code == 0
    assert "moderate" in out and "'true'" in out


def test_cli_classify_unknown_exit_code(capsys):
    # an adversarial blend-free net outside the fragment: min of bump
    # trains against an oscillator sum stays undecided for negligibility
    code, out = run_cli(["classify", "min(bumptrain(geo(1/2)), "
                         "abs(sin(1/eps)) + exp(-1/eps))", "--grid", "80"],
                        capsys)
    assert code in (0, 3)  # decided or honestly unknown
    if "unknown" in out:
        assert code == 3


def test_cli_parse_error_exit_code(capsys):
    code, out = run_cli(["classify", "eps^(1/2"], capsys)
    assert code == 1
    assert "parse" in out and "column" in out


def test_cli_non_ascii_digit_is_a_parse_error(capsys):
    code, out = run_cli(["classify", "eps^²", "--json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "parse" and doc["column"] == 5


def test_cli_precondition_exit_code(capsys):
    code, out = run_cli(["zerodiv", "eps", "--grid", "80"], capsys)
    assert code == 2
    assert "precondition" in out


def test_cli_eps_min_outside_unit_interval_exit_code(capsys):
    for eps_min in ("2", "1", "nan"):
        code, out = run_cli(["classify", "eps", "--eps-min", eps_min,
                             "--json"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "domain"


def test_cli_oscillator_overflow_is_a_domain_error(capsys):
    # 1/eps^400 overflows on the grid: the oscillator raises DomainError
    for argv in (["eval-grid", "sin(1/eps^400)", "--grid", "10"],
                 ["smooth", "abs(sin(1/eps^400))", "--json"]):
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert "domain" in out and "oscillator argument overflows" in out
    assert json.loads(out)["error"] == "domain"


def test_cli_tier_flag_enforced(capsys):
    code, out = run_cli(["classify", "indicator(harmonic)",
                         "--tier", "smooth"], capsys)
    assert code == 2


def test_cli_compare_and_json(capsys):
    code, out = run_cli(["compare", "eps", "eps + exp(-1/eps)",
                         "--grid", "120", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["gn_equal"]["verdict"] == "true"
    assert doc["schema_version"] == "1"
    assert doc["config"]["fingerprint"]


def test_cli_deterministic_output(capsys):
    args = ["classify", "eps^-1 + cos(1/eps)", "--grid", "100", "--json"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert (code1, out1) == (code2, out2)


def test_cli_rejects_flags_a_subcommand_does_not_read(capsys):
    for argv in (["idem", "1 + exp(-1/eps)", "--eps-min", "2", "--json"],
                 ["classify", "eps", "--seed", "3"],
                 ["lattice", "sin(1/eps)", "eps", "--grid", "100"],
                 ["eval-grid", "eps", "--json"]):
        code, _ = run_cli(argv, capsys)
        assert code == 1, argv
    code, out = run_cli(["classify", "eps", "--grid", "80", "--json"], capsys)
    assert code == 0
    assert set(json.loads(out)["config"]) == {"grid", "eps_min", "m_max",
                                              "tier", "fingerprint"}


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## The CLI", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            flags = set(re.findall(r"`(--[a-z-]+)`", cells[2]))
            for name in re.findall(r"`([a-z-]+)`", cells[1]):
                documented[name] = flags
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings}
              - {"-h", "--help"} for name, p in sub.choices.items()}
    assert documented == parsed


def test_cli_file_input(tmp_path, capsys):
    p = tmp_path / "exprs.txt"
    p.write_text("eps\n# a comment line\n\nabs(sin(1/eps))\n")
    code, out = run_cli(["classify", "--file", str(p), "--grid", "80",
                         "--json"], capsys)
    doc = json.loads(out)
    assert len(doc["results"]) == 2


def test_cli_eval_grid_format(capsys):
    code, out = run_cli(["eval-grid", "eps", "--grid", "12",
                         "--eps-min", "0.001"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("# columns:")
    rows = [l.split() for l in lines[2:]]
    assert len(rows) == 12
    for e, v in rows:
        assert float(e) == float(v)


def test_cli_smooth_and_ideal(capsys):
    code, out = run_cli(["smooth", "abs(sin(1/eps))", "--grid", "150",
                         "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["grid_max_ratio"] <= 1.0
    code, out = run_cli(["ideal", "membership", "eps*sin(1/eps)",
                         "sin(1/eps)", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["membership"]["verdict"] == "true"


def test_cli_lattice_charset_split_idem(capsys):
    code, _ = run_cli(["lattice", "sin(1/eps)", "cos(1/eps)"], capsys)
    assert code == 0
    code, out = run_cli(["idem", "1 + exp(-1/eps)", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["verdict"] == "one"
    code, out = run_cli(["charset", "bumptrain(harmonic)",
                         "bumptrain(harmonic_mid)", "--json"], capsys)
    assert code == 0 and json.loads(out)["schedule_ok"]
    code, out = run_cli(["split", "bumptrain(harmonic)",
                         "bumptrain(harmonic_mid)", "--grid", "200",
                         "--json"], capsys)
    assert code == 0 and json.loads(out)["passed"]
    code, out = run_cli(["zerodiv", "sin(1/eps)", "--grid", "200",
                         "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["replay_product_negligible"] and doc["replay_moderate"]


def test_cli_ideal_suite(capsys):
    code, out = run_cli(["ideal", "reduce", "sin(1/eps)", "cos(1/eps)",
                         "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sum_in_max"]["verdict"] == "true"
    assert doc["max_in_sum"]["verdict"] == "true"
    code, out = run_cli(["ideal", "intersect", "eps", "eps^2", "--json"],
                        capsys)
    assert code == 0 and "min" in json.loads(out)["generator"]
    code, out = run_cli(["ideal", "power", "eps^2*sin(1/eps)^2",
                         "sin(1/eps)", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["power_membership"]["verdict"] == "true"
    code, out = run_cli(["ideal", "radical", "root(abs(bumptrain(geo(1/4))), 2)",
                         "bumptrain(geo(1/4))", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["radical_membership"]["verdict"] == "true"
    code, out = run_cli(["ideal", "isradical", "bumptrain(geo(1/2))",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["is_radical"]["verdict"] == "false"
