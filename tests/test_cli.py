"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import verolink
from verolink.cli import main, poly_to_json
from verolink.link import saturated_fiber_poly, zonotope_poly
from verolink.poly import SparsePoly, parse_poly, render_poly
from verolink.veronese import monomial


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pplus_golden(capsys):
    code, out, _ = run(capsys, ["pplus", "-n", "3", "-i", "1"])
    assert code == 0
    assert out == "x11*x23 + x12*x13\n"


def test_pn(capsys):
    code, out, _ = run(capsys, ["pn", "-n", "3"])
    assert code == 0
    assert out.strip() == "x12*x33 + x13*x23"


def test_torsion_text_formats(capsys):
    code, out, _ = run(capsys, ["torsion", "-d", "2", "-n", "4"])
    assert code == 0
    assert out.strip() == "2^3"
    code, out, _ = run(capsys, ["torsion", "-d", "3", "-n", "4"])
    assert code == 0
    assert out.strip() == "3^13"
    code, out, _ = run(capsys, ["torsion", "-d", "2", "-n", "2"])
    assert code == 0
    assert out.strip() == "1"


def test_grading_output(capsys):
    code, out, _ = run(capsys, ["grading", "-d", "2", "-n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# columns: 11 12 13 22 23 33"
    assert lines[1:] == ["2 1 1 0 0 0", "0 1 0 2 1 0", "0 0 1 0 1 2"]


def test_basis_output(capsys):
    code, out, _ = run(capsys, ["basis", "-n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "11:1 13:-2 33:1"
    code, out, _ = run(capsys, ["basis", "-n", "3", "--prime"])
    assert code == 0
    assert out.splitlines()[0] == "12:2 13:-2 23:-2 33:2"


def test_fiber_with_classes(capsys):
    code, out, _ = run(capsys, ["fiber", "-n", "3", "-b", "2,1,1",
                                "--classes"])
    assert code == 0
    assert out.splitlines() == ["0\tx12*x13", "1\tx11*x23"]


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, ["hilbert", "-n", "3", "--max-sum", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#degree\tfiber\tclasses\tsaturated"
    assert "2,1,1\t2\t2\tyes" in lines


def test_twist_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["twist", "--signs", "12:-"],
                       stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "x11*x23 - x12*x13"


def test_member_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, ["member", "--ideal", "jn", "-n", "3"],
                       stdin="x11*x22 - x12*x12", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, ["member", "--ideal", "jn", "-n", "3"],
                       stdin="x11*x23 - x12*x13", monkeypatch=monkeypatch)
    assert code == 1 and out.strip() == "no"
    code, out, _ = run(capsys, ["member", "--ideal", "veronese", "-n", "3"],
                       stdin="x11*x23 - x12*x13", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys,
                       ["member", "--ideal", "veronese", "--eps", "12:-",
                        "-n", "3"],
                       stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "yes"


@pytest.mark.parametrize("text, code", [("3", 1), ("x11", 1), ("x12", 2)])
def test_only_the_variables_present_are_checked_against_n(capsys, monkeypatch,
                                                          text, code):
    got, out, err = run(capsys, ["member", "--ideal", "jn", "-n", "1"],
                        stdin=text, monkeypatch=monkeypatch)
    assert got == code
    if code == 1:
        assert out == "no\n" and err == ""
    else:
        assert out == "" and "variable index 2 exceeds n=1" in err


@pytest.mark.parametrize("argv", [["member", "--ideal", "jn"], ["colon"],
                                  ["twist"]])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_a_constant_below_one_variable_meets_the_size_guard(capsys, monkeypatch,
                                                            argv, n):
    # A constant names no variable index, so none is reported.
    code, out, err = run(capsys, argv + ["-n", n], stdin="3",
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "n >= 1" in err and "index" not in err


@pytest.mark.parametrize("eps", ["12:-", "12:+", ""])
def test_member_of_jn_takes_no_character(capsys, monkeypatch, eps):
    # J_n has no sign character; an --eps given with it is not ignored.
    code, out, err = run(capsys, ["member", "--ideal", "jn", "--eps", eps,
                                  "-n", "3"], stdin="x11",
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "--eps" in err


def test_colon_membership_cli(capsys, monkeypatch):
    code, out, _ = run(capsys, ["colon", "-n", "3"],
                       stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, ["colon", "-n", "3"], stdin="x11",
                       monkeypatch=monkeypatch)
    assert code == 1 and out.strip() == "no"


# Exit 1 means "not a member", so malformed input must not reach it.
MALFORMED_INPUT_COMMANDS = [["member", "--ideal", "jn", "-n", "2"],
                            ["colon", "-n", "2"],
                            ["twist", "--signs", "12:-"]]


@pytest.mark.parametrize("argv", MALFORMED_INPUT_COMMANDS)
def test_a_zero_denominator_is_a_usage_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin="1/0*x11",
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "1/0" in err


@pytest.mark.parametrize("argv", MALFORMED_INPUT_COMMANDS)
@pytest.mark.parametrize("text", ["1/2/3*x11", "2*x11/3"])
def test_a_slash_outside_the_grammar_is_a_usage_error(capsys, monkeypatch,
                                                      argv, text):
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "'/'" in err


@pytest.mark.parametrize("argv", MALFORMED_INPUT_COMMANDS)
@pytest.mark.parametrize("text, message", [
    # An index is one digit: not 3*x12.
    ("x123", "bad variable 'x123'"),
    ("x11*x2211", "bad variable 'x2211'"),
    # A coefficient comes before the variables: not 2*x11 or 3*x11.
    ("x11 2", "coefficient 2 after a variable"),
    ("x11*3", "coefficient 3 after a variable"),
    ("x11*x22 - x12*x12 2", "coefficient 2 after a variable"),
    # One sign per term: not x11 + x22 or -x11.
    ("x11 - -x22", "two signs"),
    ("x11*x22 - -x12*x12", "two signs"),
    ("--x11", "two signs"),
    ("+-x11", "two signs"),
    ("x11 + + x22", "two signs"),
    # A '*' joins a coefficient or variable to the next variable.
    ("x11* - x22", "'*' without a variable after it"),
    ("2*", "'*' without a variable after it"),
    ("x11**x22", "'*' without a variable after it"),
    ("x11*x22*", "'*' without a variable after it"),
    # A '/' stands only inside a coefficient: not 1/2*x12, 1/10 or 3/4*x11*x22.
    ("1/x12 2", "misplaced '/'"),
    ("1/*10", "misplaced '/'"),
    ("3/x11*x22 4 - x12", "misplaced '/'"),
    ("1/", "misplaced '/'"),
    # Digits and spaces are ASCII: not x12, 3*x11, x12 + 2 or x11 + x22.
    ("x\u0661\u0662", "cannot tokenize"),
    ("\u0663*x11", "cannot tokenize"),
    ("x\uff11\uff12 + \uff12", "cannot tokenize"),
    ("x11\u00a0+ x22", "cannot tokenize"),
    ("x11 + x22\u00a0", "cannot tokenize")])
def test_input_outside_the_grammar_is_a_usage_error(capsys, monkeypatch, argv,
                                                    text, message):
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert message in err


def test_verify_link_cli(capsys):
    code, out, _ = run(capsys, ["verify-link", "-n", "3", "--bound", "6"])
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("verdict=pass")


def test_verify_link_cli_with_omit(capsys):
    code, _, _ = run(capsys, ["verify-link", "-n", "3", "--bound", "6",
                              "--omit", "12:-"])
    assert code == 0


def test_verify_decomp_cli(capsys):
    code, out, _ = run(capsys, ["verify-decomp", "-n", "3", "--bound", "6"])
    assert code == 0
    assert "verdict=pass" in out


def test_verify_link_below_its_extra_generators_is_verify_decomp(capsys):
    # At n = 8 the extra generator has coordinate sum 48, and its class
    # search runs past the size cap; below that sum it adds no column.
    code, out, _ = run(capsys, ["verify-link", "-n", "8", "--bound", "2"])
    decomp_code, decomp, _ = run(capsys, ["verify-decomp", "-n", "8",
                                          "--bound", "2"])
    assert code == decomp_code == 0
    assert out == decomp
    assert out.splitlines()[-1] == "verdict=pass checked=37"


@pytest.mark.parametrize("argv", [["-n", "0"], ["-n", "-1"], ["-n", "1"],
                                  ["-n", "2"], ["-n", "0", "--omit", "12:-"]])
def test_verify_link_below_three_variables_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, ["verify-link", "--bound", "2"] + argv)
    assert code == 2 and out == ""
    assert err == "error: need n >= 3\n"


def test_laurent_check_cli(capsys):
    code, out, _ = run(capsys, ["laurent-check", "-k", "2"])
    assert code == 0
    assert out.strip() == "k=2 omissions=4 verdict=pass"


def test_usage_error_exit_code(capsys):
    assert main(["pplus", "-n", "3"]) == 2          # missing -i
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main(["fiber", "-n", "3", "-b", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("degree", ["1_0,1,1", "\u0662,1,1", "2,1,\uff11",
                                    "2,,1", "2,1,1,", "2.0,1,1", "0x2,1,1"])
def test_a_degree_outside_ascii_integers_is_a_usage_error(capsys, degree):
    # int() alone reads 1_0 as 10 and non-ASCII digits as their values.
    code, out, err = run(capsys, ["fiber", "-n", "3", "-b", degree])
    assert code == 2 and out == ""
    assert err == (f"error: bad degree {degree!r}; "
                   "expected comma-separated integers\n")


@pytest.mark.parametrize("degree", ["2,1,1", " 2, 1 ,1 ", "+2,1,+1"])
def test_a_degree_takes_signs_and_spaces(capsys, degree):
    assert run(capsys, ["fiber", "-n", "3", "-b", degree]) == \
        (0, "x12*x13\nx11*x23\n", "")


def test_size_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "2")
    code, _, err = run(capsys, ["fiber", "-n", "4", "-b", "2,2,2,2"])
    assert code == 3
    assert "cap" in err


def test_a_size_stop_is_not_a_usage_error():
    # Usage errors are ValueError; an ``except ValueError`` in a caller
    # must not swallow a size stop.
    assert not issubclass(verolink.SizeCapExceeded, ValueError)
    errors = vars(verolink.errors)
    assert [name for name, v in errors.items() if isinstance(v, type)] == \
        ["SizeCapExceeded"]


def test_non_integer_size_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "abc")
    code, out, err = run(capsys, ["fiber", "-n", "3", "-b", "2,1,1"])
    assert code == 2
    assert out == ""
    assert "VLAB_SIZE_CAP" in err


# 1,0,0 has an odd sum, so its fiber is empty and has no point to count.
@pytest.mark.parametrize("value, degree", [("abc", "1,0,0"), ("-5", "2,1,1"),
                                           ("-5", "1,0,0"), ("1_0", "2,2,2"),
                                           ("\u0661\u0660", "2,2,2")])
def test_bad_size_cap_is_a_usage_error(capsys, monkeypatch, value, degree):
    monkeypatch.setenv("VLAB_SIZE_CAP", value)
    code, out, err = run(capsys, ["fiber", "-n", "3", "-b", degree])
    assert code == 2 and out == ""
    assert "VLAB_SIZE_CAP" in err


@pytest.mark.parametrize("argv", [
    "fiber -n 3 -b 2,1,1",
    "fiber -n 3 -b 2,1,1 --classes",
    "hilbert -n 3 --max-sum 4",
    "pplus -n 3 -i 1",
    "pn -n 3",
    "verify-link -n 3 --bound 4",
    "verify-decomp -n 3 --bound 4",
])
def test_every_enumerating_command_obeys_the_size_cap(capsys, monkeypatch, argv):
    monkeypatch.setenv("VLAB_SIZE_CAP", "1")
    code, out, err = run(capsys, argv.split())
    assert code == 3 and out == ""
    assert "cap" in err


@pytest.mark.parametrize("cap, code", [("43580", 3), ("43581", 0)])
def test_the_largest_benchmark_fiber_meets_the_cap_at_its_size(
        capsys, monkeypatch, cap, code):
    monkeypatch.setenv("VLAB_SIZE_CAP", cap)
    got, out, err = run(capsys, ["fiber", "-n", "6", "-b", "4,4,4,4,4,4"])
    assert got == code
    if code:
        assert out == "" and err.endswith("exceeds the size cap 43580\n")
    else:
        assert out.count("\n") == 43581 and err == ""


def test_pplus_at_n8_stops_at_its_class_count(capsys):
    # binom(7, 2) = 21 pair parities: 2^21 classes pass the default cap.
    code, out, err = run(capsys, ["pplus", "-n", "8", "-i", "1"])
    assert code == 3 and out == ""
    assert "2097152 classes" in err


def test_pn_at_n8_stops_at_its_term_count(capsys):
    # The same 2^21 count, of the zonotope's terms, before any product.
    code, out, err = run(capsys, ["pn", "-n", "8"])
    assert code == 3 and out == ""
    assert "2097152 terms" in err


@pytest.mark.parametrize("cap, code", [("63", 3), ("64", 0)])
def test_pn_meets_the_cap_at_its_term_count(capsys, monkeypatch, cap, code):
    # binom(4, 2) = 6 factors at n = 5: 2^6 terms.
    monkeypatch.setenv("VLAB_SIZE_CAP", cap)
    got, out, err = run(capsys, ["pn", "-n", "5"])
    assert got == code
    if code:
        assert out == "" and err.endswith("exceed the size cap 63\n")
    else:
        assert out.count(" + ") == 63 and err == ""


def test_the_verify_size_cap_counts_the_largest_level(capsys, monkeypatch):
    # Sum 6 at n = 4 has binom(12, 3) = 220 monomials, its largest fiber 6.
    argv = ["verify-decomp", "-n", "4", "--bound", "6"]
    monkeypatch.setenv("VLAB_SIZE_CAP", "219")
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "220 monomials of coordinate sum 6" in err
    monkeypatch.setenv("VLAB_SIZE_CAP", "220")
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.endswith("verdict=pass checked=130\n")


def test_a_negative_max_sum_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["hilbert", "-n", "3", "--max-sum", "-1"])
    assert code == 2 and out == ""
    assert "max sum" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_hilbert_with_no_variables_is_a_usage_error(capsys, n):
    # Exit 1 would read as a negative verdict; no variable is no table.
    code, out, err = run(capsys, ["hilbert", "-n", n, "--max-sum", "2"])
    assert code == 2 and out == ""
    assert "n >= 1" in err


@pytest.mark.parametrize("argv, text, message", [
    (["twist", "-n", "2"], "x33 - x13*x13", "variable index 3 exceeds n=2"),
    (["twist", "-n", "0"], "x33 - x13*x13", "variable index 3 exceeds n=0"),
    (["twist", "-n", "2", "--signs", "13:-"], "x33 - x13*x13",
     "sign index 3 exceeds n=2"),
    (["twist", "-n", "2", "--signs", "13:-"], "x12", "sign index 3 exceeds n=2"),
    (["twist", "-n", "-1"], "x33 - x13*x13", "variable index 3 exceeds n=-1")])
def test_twist_keeps_an_explicit_n(capsys, monkeypatch, argv, text, message):
    # As in member and colon, an index above -n is refused, not widened.
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, text, twisted", [
    (["twist"], "x33 - x13*x13", "-x13*x13 + x33"),
    (["twist", "--signs", "13:-"], "x13*x22", "-x13*x22"),
    (["twist", "--signs", "13:-"], "x12", "x12"),
    (["twist", "-n", "3", "--signs", "13:-"], "x13*x22", "-x13*x22"),
    (["twist", "-n", "4", "--signs", "13:-"], "x13", "-x13")])
def test_twist_infers_n_or_takes_one_wide_enough(capsys, monkeypatch, argv,
                                                 text, twisted):
    code, out, _ = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out == twisted + "\n"


TWIST_TEXT = "x11*x23 + x12*x13 - 2*x14*x34 + x12*x44 - 1/3*x11*x24"


def _twist_json(*coeffs):
    exps = ['{"11": 1, "23": 1}', '{"11": 1, "24": 1}', '{"12": 1, "13": 1}',
            '{"12": 1, "44": 1}', '{"14": 1, "34": 1}']
    return "[" + ", ".join(f'{{"coeff": "{c}", "exp": {e}}}'
                           for c, e in zip(coeffs, exps)) + "]"


# Diagonal flips, several flips, an explicit "+" and an index above the
# polynomial's own; without -n the last one widens the ring to n = 5.
@pytest.mark.parametrize("signs, text, as_json", [
    ("11:-", "-x11*x23 + 1/3*x11*x24 + x12*x13 + x12*x44 - 2*x14*x34",
     _twist_json("-1", "1/3", "1", "1", "-2")),
    ("12:-,34:-", "x11*x23 - 1/3*x11*x24 - x12*x13 - x12*x44 + 2*x14*x34",
     _twist_json("1", "-1/3", "-1", "-1", "2")),
    ("44:-,14:+", "x11*x23 - 1/3*x11*x24 + x12*x13 - x12*x44 - 2*x14*x34",
     _twist_json("1", "-1/3", "1", "-1", "-2")),
    ("55:-", "x11*x23 - 1/3*x11*x24 + x12*x13 + x12*x44 - 2*x14*x34",
     _twist_json("1", "-1/3", "1", "1", "-2"))])
def test_twist_output_is_pinned(capsys, monkeypatch, signs, text, as_json):
    code, out, err = run(capsys, ["twist", "--signs", signs],
                         stdin=TWIST_TEXT, monkeypatch=monkeypatch)
    assert (code, out, err) == (0, text + "\n", "")
    code, out, err = run(capsys, ["twist", "--json", "-n", "5", "--signs", signs],
                         stdin=TWIST_TEXT, monkeypatch=monkeypatch)
    assert (code, out, err) == (0, as_json + "\n", "")


@pytest.mark.parametrize("k", ["0", "9"])
def test_laurent_check_outside_its_range_is_a_usage_error(capsys, k):
    code, out, err = run(capsys, ["laurent-check", "-k", k])
    assert code == 2 and out == ""
    assert "k <= 8" in err


# An empty item is refused rather than read as no sign.
@pytest.mark.parametrize("spec", ["123:-", "1:-", "12:", "12:+-", "12", "a2:-",
                                  ",", "12:-,", ",12:-", "12:-,,13:-", " "])
def test_malformed_sign_spec_is_a_usage_error(capsys, monkeypatch, spec):
    code, out, _ = run(capsys, ["verify-link", "-n", "3", "--bound", "2",
                                "--omit", spec])
    assert code == 2 and out == ""
    code, out, _ = run(capsys, ["twist", "--signs", spec],
                       stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 2 and out == ""


@pytest.mark.parametrize("spec", ["12:-,12:+", "12:-,21:+", "13:+,12:-,13:+"])
def test_a_pair_given_twice_is_a_usage_error(capsys, monkeypatch, spec):
    code, out, err = run(capsys, ["verify-link", "-n", "4", "--bound", "4",
                                  "--omit", spec])
    assert code == 2 and out == ""
    assert "twice" in err
    code, out, err = run(capsys, ["twist", "--signs", spec],
                         stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "twice" in err


@pytest.mark.parametrize("spec", ["10:-", "00:-", "01:+"])
@pytest.mark.parametrize("argv", [
    ["twist", "--signs"],
    ["verify-link", "-n", "3", "--bound", "2", "--omit"],
    ["member", "--ideal", "veronese", "-n", "3", "--eps"]])
def test_sign_index_zero_is_a_usage_error(capsys, monkeypatch, argv, spec):
    # Indices run from 1; a 0 names no variable and must not be dropped.
    code, out, err = run(capsys, argv + [spec], stdin="x11*x23 + x12*x13",
                         monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert spec in err


@pytest.mark.parametrize("command", ["verify-link", "verify-decomp"])
def test_bound_without_degrees_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, [command, "-n", "3", "--bound", "-2"])
    assert code == 2 and out == ""
    assert "degree bound" in err


def read_json_poly(data, n):
    """The polynomial of a JSON term array, read without ``poly_to_json``."""
    return SparsePoly(n, {
        monomial(n, {(int(k[0]), int(k[1])): e
                     for k, e in term["exp"].items()}):
        Fraction(term["coeff"]) for term in data})


def test_json_polynomial_round_trip(capsys, monkeypatch):
    # Unit coefficients and exponents from pplus; fractions, signs and
    # squares from twist.
    text = "-2/3*x11*x11*x23 + 5*x12*x13*x13 - 7/2*x22*x33*x33"
    for argv, stdin, expected in (
            (["pplus", "-n", "4", "-i", "1"], None, saturated_fiber_poly(4, 1)),
            (["twist", "-n", "3", "--signs", "12:-"], text,
             parse_poly("-2/3*x11*x11*x23 - 5*x12*x13*x13"
                        " - 7/2*x22*x33*x33", n=3))):
        code, out, _ = run(capsys, argv + ["--json"], stdin=stdin,
                           monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert read_json_poly(data, expected.n) == expected
        # Re-serializing the polynomial read reproduces the same JSON text.
        again = json.dumps(poly_to_json(read_json_poly(data, expected.n)),
                           sort_keys=True)
        assert again == json.dumps(data, sort_keys=True)


def test_json_modes_parse(capsys):
    for argv in (["grading", "-d", "2", "-n", "3", "--json"],
                 ["hilbert", "-n", "3", "--max-sum", "4", "--json"],
                 ["verify-link", "-n", "3", "--bound", "4", "--json"],
                 ["torsion", "-d", "2", "-n", "3", "--json"],
                 ["laurent-check", "-k", "1", "--json"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        json.loads(out)


def test_text_output_reparses(capsys):
    for n, i in ((3, 2), (4, 1), (5, 4)):
        code, out, _ = run(capsys, ["pplus", "-n", str(n), "-i", str(i)])
        assert code == 0
        assert parse_poly(out, n=n) == saturated_fiber_poly(n, i)
    code, out, _ = run(capsys, ["pn", "-n", "4"])
    assert parse_poly(out, n=4) == zonotope_poly(4)
    assert render_poly(parse_poly(out, n=4)) == out.strip()

# SHA-256 of the stdout of ``python -m verolink.cli ARGS``, pinned so
# that a change to the verification route, to the lattice and grading
# values behind ``grading``, ``basis`` and ``torsion``, or to the fiber
# enumeration behind ``fiber`` and ``hilbert``, cannot change what is
# printed.
RECORD_STREAM_DIGESTS = {
    "verify-decomp --json -n 4 --bound 10":
        "e6b69ef7c561872bd2e44500ffd48859fe9ae33326c1365fa64d1a65b1709d3d",
    "verify-link --json -n 3 --bound 8 --omit 12:-":
        "60aa8aa9b087ab51948fe9018e13fbffb20d4a3912b7b99037e67e70fb3a5990",
    "verify-link --json -n 4 --bound 8 --omit 13:-":
        "68fa17f13505174eb74806c6d89b58f9edd3bb3633ac9f9a2eb08148b2d12945",
    "verify-link --json -n 5 --bound 6 --omit 12:-,34:-":
        "ba8ad6db34e59e5589ca113da857c86e3e633f08296a640c703c7a2a5ba67265",
    "verify-decomp -n 5 --bound 6":
        "32e47c4fd33439c24f8afecb1525a319a507fb640061a2548259e0c9058cdbe0",
    "verify-link -n 4 --bound 8 --omit 13:-":
        "741a2de02d15c92a1f37ec733036295997738f80109bcde8c286ca9045cc4d70",
    "pplus -n 6 -i 1":
        "04d4ac25e9daeb0b366a60c85e3bdfa92a488da78c29ee9e0c964488e3768380",
    "pplus --json -n 5 -i 2":
        "ebb04058f345213d2235d671c44466be61bfc3a24313fe89f64847f49379dabf",
    "pplus -n 3 -i 1":
        "b446844f375f6125379c6bd24e1c9559a91c4735293d970beafcb36c25b7fb86",
    "verify-link -n 5 --bound 8":
        "9becf2671033c31c69923fd45ed5a3331ed4483ff19f58b76f1e1f53ad0f6991",
    "verify-decomp -n 6 --bound 4":
        "e43881956af94cabc7534ff8a588428399c6b541e57752f6a0c275d49cdd2cf8",
    "verify-link -n 6 --bound 4 --omit 12:-,13:+,14:-,15:+,23:+,24:-,25:-,34:+,35:+,45:-":
        "e43881956af94cabc7534ff8a588428399c6b541e57752f6a0c275d49cdd2cf8",
    "pplus -n 5 -i 3":
        "9ed34c316f152698a49647b472ae45a7e81b6eb92a8c376bb7c448570d39fa4f",
    "grading -d 2 -n 6":
        "3dbafa8755cc1be4c490d854d2af5009ea560c1254e11b6d79173055331f6ea3",
    "grading --json -d 3 -n 4":
        "e0c0295d9e4648c7456d52f5277b4b6ce5f5e62c482c86d1c7f5685ff5f56300",
    "basis -n 5":
        "973ed7d5a4dcfb49b7780902f34f9c0441cc7ee74d8b6dc0e3f78c0e8ebcb04a",
    "basis -n 2 --prime":
        "412a2a7ea117861144404457b58cbdcd8ff97ef0cc6c1133f6f5d4e244ed4743",
    "basis --json -n 4 --prime":
        "5df76b72015fe2af4a39b6289ecf84594b13b05536c4d35e7c5d7c361dddb416",
    "torsion --json -d 3 -n 5":
        "472026bc8b0e55d4629f504f2f5ef8663043463285d2785f4ee36a8f1410b32b",
    "verify-decomp -n 8 --bound 4":
        "087761396156f2a3f7427134400b5ead1e6b617c6327cb9dec763b3abcebd03f",
    "verify-link -n 8 --bound 4 --omit 12:-":
        "087761396156f2a3f7427134400b5ead1e6b617c6327cb9dec763b3abcebd03f",
    "fiber -n 5 -b 4,4,3,3,2 --classes":
        "d691190f8f7e3fc796e9ec42f08d3ebe6df476b5c51b1153018d4ac306e64e36",
    "fiber --json -n 4 -b 4,4,2,2 --classes":
        "001f00061c5ccfbe6b6656abce0394831e76cdc3907679135715c66baad48ec2",
    "hilbert -n 5 --max-sum 8":
        "c398d43e54943bfb24e5624d2279675fbdb24d9541d6aaa3a22ebef3238034f2",
    "hilbert --json -n 4 --max-sum 6":
        "03471eaf1b49a568af1b2322c9d53ed117ba87615d00dfe5c7e695de42ca8e08",
    # Binomial extra generators join parity classes into one component.
    "verify-link -n 3 --bound 12 --omit 12:-":
        "1458c89e241ff2665e22cff516db7a35e6ab746203f59707aa766ea1d900939c",
    # Eight-term extra generators, summed per component and per mask.
    "verify-link --json -n 4 --bound 12 --omit 13:-":
        "c40aafbcbdeceea7c4e4ef378ac648923e70d91253f8aefaff143d3cee668c1a",
    "verify-decomp --json -n 5 --bound 8":
        "160d3c93ec06d16ff9baf6f6451b93a9ffbb8fdb4911058ad25983c47793882d",
    # The orbit route, one record per degree copied from its orbit's
    # representative; these were taken from the every-level route.  The
    # first passes its gate through the normal form of f.
    "verify-link -n 4 --bound 12":
        "182d8bd3e8f777bb7296126ebfe0a0ae09ed72140910ea61adbbfd54874e60b1",
    "verify-link --json -n 5 --bound 16":
        "dfb3aa8d81b411de1c18ebe0def387e515b5be6c9641880e8ecd78b8c9d160b4",
    "verify-decomp -n 6 --bound 10":
        "1de68b4b79aef576f93887c6bbca1c12b49496bac673c46b65e560b4bad05c12",
}


def child_env():
    """The environment of a child process that imports this source tree."""
    src = str(Path(verolink.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("args", sorted(RECORD_STREAM_DIGESTS))
def test_record_stream_digest(args):
    done = subprocess.run([sys.executable, "-m", "verolink.cli", *args.split()],
                          capture_output=True, check=True,
                          env=child_env())
    assert hashlib.sha256(done.stdout).hexdigest() == RECORD_STREAM_DIGESTS[args]


@pytest.mark.parametrize("args", ["torsion -d 2 -n 4",
                                  "fiber -n 6 -b 4,4,4,4,4,4"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(args):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout, or the final flush, meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "verolink.cli", *args.split()],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env())
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every command pays for the modules ``verolink.cli`` imports.
    code = ("import sys, verolink.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, check=True, text=True,
                          env=child_env())
    assert done.stdout == "[]\n"


def test_a_successful_command_never_sizes_the_terminal():
    # Sizing argparse's formatters imports shutil (with zlib, bz2, lzma
    # and fnmatch); only help, usage and error text need a width.
    code = ("import sys, verolink.cli; loaded = 'shutil' in sys.modules; "
            "code = verolink.cli.main(['torsion', '-d', '2', '-n', '3']); "
            "print(code, loaded, 'shutil' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, check=True, text=True,
                          env=child_env())
    assert done.stdout == "2\n0 False False\n"


@pytest.mark.parametrize("columns, usage_lines", [("40", 3), ("200", 1)])
def test_help_takes_the_width_when_it_prints(capsys, monkeypatch, columns,
                                             usage_lines):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, _ = run(capsys, ["-h"])
    assert code == 0
    assert len(out.split("\n\n")[0].splitlines()) == usage_lines


# SHA-256 of ``stdout + "\0" + stderr`` of ``main(ARGS)`` with COLUMNS
# set: help exits 0, usage errors 2.  argparse's wording changes between
# Python versions; these were taken on Python 3.11.
HELP_TEXT_PYTHON = (3, 11)
HELP_TEXT_DIGESTS = {
    ("-h", 40):
        "6abb6c51010e07ec3e3069d5b7760945aef9868815d97e09644d72dfb9e39fad",
    ("-h", 80):
        "8361b6b93f77c309f6b9faa66a9d88c9d28c4096a28484b8214da2e451f206f2",
    ("-h", 200):
        "3652c770865b11e5b3c8da2f23d991f0b8d8516c57b47da7b920e2709a80cb79",
    ("grading -h", 40):
        "cdfff277dc983a157a847df481234546615d88415b481918e552718df26e5aab",
    ("grading -h", 80):
        "c2f007be3c2bc7f96542ac40686bfd88ceb06889a6477d488902ffd02512b160",
    ("grading -h", 200):
        "c2f007be3c2bc7f96542ac40686bfd88ceb06889a6477d488902ffd02512b160",
    ("basis -h", 40):
        "908b46cbfb5852329de2d66509fdafa986967ff9cc45da78b2573618b12ddbec",
    ("basis -h", 80):
        "7f2e6ccc55d2d1d12015ff0356f32e580eee22fd31ee70677fdad887663ca2ae",
    ("basis -h", 200):
        "7f2e6ccc55d2d1d12015ff0356f32e580eee22fd31ee70677fdad887663ca2ae",
    ("torsion -h", 40):
        "74f6fb9b4475e16742eb9b3976092be86b723704d664b6b14c99ec10b0389c82",
    ("torsion -h", 80):
        "ad75468b0a3daf878f23f1a67102bf9a1dc8106877db2d786d35489551b93af3",
    ("torsion -h", 200):
        "ad75468b0a3daf878f23f1a67102bf9a1dc8106877db2d786d35489551b93af3",
    ("fiber -h", 40):
        "e80ce21d18846552e60bd6ddac76c695cf2bfdbe6672f51984453283800ec35b",
    ("fiber -h", 80):
        "e20f5db4afe1f00198de741c0264ea1717f49be43fc5b88fd49c92e1a933ebe7",
    ("fiber -h", 200):
        "e20f5db4afe1f00198de741c0264ea1717f49be43fc5b88fd49c92e1a933ebe7",
    ("hilbert -h", 40):
        "40377bd2c013fe9c6c53337e2fa278e489a2f8f1a05ef0d8ca4bf72e305f3742",
    ("hilbert -h", 80):
        "955ca0827652a76552a3690e4fb5e75c8f7ba751132b70f86a3677b1766cdb97",
    ("hilbert -h", 200):
        "955ca0827652a76552a3690e4fb5e75c8f7ba751132b70f86a3677b1766cdb97",
    ("pn -h", 40):
        "42b74dd6e618a76657b7eb39edafe4795fc2002f8748ea42b3da347438b3fa4a",
    ("pn -h", 80):
        "1de72dc6c8f86f7e0f1a773ca7ecbb37bbade158a30ff18d0a3dbfb6a5f89b23",
    ("pn -h", 200):
        "1de72dc6c8f86f7e0f1a773ca7ecbb37bbade158a30ff18d0a3dbfb6a5f89b23",
    ("pplus -h", 40):
        "dc0699fe66919f3a7d1d5ebdb0271901ba37f25ae7d3d3e54181803e2189bfdd",
    ("pplus -h", 80):
        "35cb90e4f3a3431bb098232bbc01793ca80e21b598cffe86c91a4ed486c41528",
    ("pplus -h", 200):
        "35cb90e4f3a3431bb098232bbc01793ca80e21b598cffe86c91a4ed486c41528",
    ("twist -h", 40):
        "bd8e29148868dd6ab227bcbaf2df3a4ac98030cfa52005299a2f4669fdff2499",
    ("twist -h", 80):
        "95a70f1d3e6dac42bb6211835f9953197f726d0024a357eba682a400e926418e",
    ("twist -h", 200):
        "95a70f1d3e6dac42bb6211835f9953197f726d0024a357eba682a400e926418e",
    ("member -h", 40):
        "d0aeb3d843ec310272391ac37996a08bcfb817b6df1fc76c71ab2156a2f4c78a",
    ("member -h", 80):
        "71f5bb3a4a866fa8d1f7e3e3859db6c183498a173383ad183802dfebcfb0d2aa",
    ("member -h", 200):
        "71f5bb3a4a866fa8d1f7e3e3859db6c183498a173383ad183802dfebcfb0d2aa",
    ("colon -h", 40):
        "5ff5c1ee11ce22e3084c38df9684e1a2d0d1559718d16d86733822cefcb0409f",
    ("colon -h", 80):
        "7747a300afac5d5f1e024439a33e2d9172066fc4757d07b724cd289db7372a82",
    ("colon -h", 200):
        "7747a300afac5d5f1e024439a33e2d9172066fc4757d07b724cd289db7372a82",
    ("verify-link -h", 40):
        "58cb8c4f01a20d362ce50517833185ea7fdc7ffc7f3ec0d033b978aa28ac6d5e",
    ("verify-link -h", 80):
        "a64e8d4d69e0cd1e8e8125f3fd5adf8ab3f8563496c6c23c1a419015c334a8dd",
    ("verify-link -h", 200):
        "a64e8d4d69e0cd1e8e8125f3fd5adf8ab3f8563496c6c23c1a419015c334a8dd",
    ("verify-decomp -h", 40):
        "1a822b2dd3235a5deac9dce45a17e7f0a10daeae806ea3128f48bcc1dce3114e",
    ("verify-decomp -h", 80):
        "7dc12a2ce3d353fdfa8d862588cb8b219a1a1215b7fffc6712d8b2bef8b6b263",
    ("verify-decomp -h", 200):
        "7dc12a2ce3d353fdfa8d862588cb8b219a1a1215b7fffc6712d8b2bef8b6b263",
    ("laurent-check -h", 40):
        "345a26e386cff3d7e62263954945358223906ac7021ff832cee3a298490cb913",
    ("laurent-check -h", 80):
        "2c0969c4dbafc594dc2fc70c7b2552c0741fb81152f6a84d94a5681ed7b178e2",
    ("laurent-check -h", 200):
        "2c0969c4dbafc594dc2fc70c7b2552c0741fb81152f6a84d94a5681ed7b178e2",
    ("", 40):
        "b5abea845a18cc59a7c32a768a5839c5b96af27079292868d84bbd1b96d9b7c7",
    ("", 80):
        "b5abea845a18cc59a7c32a768a5839c5b96af27079292868d84bbd1b96d9b7c7",
    ("", 200):
        "23a4f64ff44b9f0190ec85951623ee200f76c13d45fa482f14d30439545a99b6",
    ("bogus", 40):
        "1becf18ad5a51b3abb86c1dbd3dc3c32e7e2582b2f908d9573b8e6e5baa1a0a8",
    ("bogus", 80):
        "1becf18ad5a51b3abb86c1dbd3dc3c32e7e2582b2f908d9573b8e6e5baa1a0a8",
    ("bogus", 200):
        "7969cb9dc13cb03b61e30d2938c727517d2ba73365e7c0fc46754bddc7935bc4",
    ("laurent-check -k 3 --bogus", 40):
        "d12c43b53d49f4f8a57dab2ac9467cfc39caad0e1d77babb0dd7ab7309bcdaf9",
    ("laurent-check -k 3 --bogus", 80):
        "d12c43b53d49f4f8a57dab2ac9467cfc39caad0e1d77babb0dd7ab7309bcdaf9",
    ("laurent-check -k 3 --bogus", 200):
        "69f73fe9577cfbd030b0276cc50877fd44df0f6a87c682c4421ad7dcd7d21b01",
    ("torsion -d x -n 2", 40):
        "4e487131623bc8bb4ba5a9cc244ddeddc3b4deded7a7e1d0af13e896ecfa1ea2",
    ("torsion -d x -n 2", 80):
        "d21b47fc27a2ef5adcc8387f41a6159437a866a50219a89d2f616eb6f2c475eb",
    ("torsion -d x -n 2", 200):
        "d21b47fc27a2ef5adcc8387f41a6159437a866a50219a89d2f616eb6f2c475eb",
    ("member --ideal zz -n 3", 40):
        "ade4c21fdb9a15b1e42941dbfc61026f783e15488e2bcbd9e94be6f50d7d0af7",
    ("member --ideal zz -n 3", 80):
        "1449eab97d398a50feb21df187b8afce41b9566bcf7645ca021045234fb84cc3",
    ("member --ideal zz -n 3", 200):
        "1449eab97d398a50feb21df187b8afce41b9566bcf7645ca021045234fb84cc3",
}


@pytest.mark.skipif(sys.version_info[:2] != HELP_TEXT_PYTHON,
                    reason="help text digests are for Python 3.11")
@pytest.mark.parametrize("args, columns", sorted(HELP_TEXT_DIGESTS))
def test_help_usage_and_error_text_are_pinned(capsys, monkeypatch, args,
                                              columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    argv = args.split()
    code, out, err = run(capsys, argv)
    assert code == (0 if "-h" in argv else 2)
    digest = hashlib.sha256((out + "\0" + err).encode()).hexdigest()
    assert digest == HELP_TEXT_DIGESTS[args, columns]
