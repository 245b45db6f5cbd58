"""End-to-end tests of the command-line interface."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import verolink
from verolink.cli import main, poly_from_json, poly_to_json
from verolink.link import saturated_fiber_poly, zonotope_poly
from verolink.poly import parse_poly, render_poly


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


def test_size_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "2")
    code, _, err = run(capsys, ["fiber", "-n", "4", "-b", "2,2,2,2"])
    assert code == 3
    assert "cap" in err


def test_non_integer_size_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("VLAB_SIZE_CAP", "abc")
    code, out, err = run(capsys, ["fiber", "-n", "3", "-b", "2,1,1"])
    assert code == 2
    assert out == ""
    assert "VLAB_SIZE_CAP" in err


# 1,0,0 has an odd sum, so its fiber is empty and has no point to count.
@pytest.mark.parametrize("value, degree", [("abc", "1,0,0"), ("-5", "2,1,1"),
                                           ("-5", "1,0,0")])
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
    "verify-link -n 3 --bound 4",
    "verify-decomp -n 3 --bound 4",
])
def test_every_enumerating_command_obeys_the_size_cap(capsys, monkeypatch, argv):
    monkeypatch.setenv("VLAB_SIZE_CAP", "1")
    code, out, err = run(capsys, argv.split())
    assert code == 3 and out == ""
    assert "cap" in err


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


@pytest.mark.parametrize("k", ["0", "8"])
def test_laurent_check_outside_its_range_is_a_usage_error(capsys, k):
    code, out, err = run(capsys, ["laurent-check", "-k", k])
    assert code == 2 and out == ""
    assert "k <= 7" in err


@pytest.mark.parametrize("spec", ["123:-", "1:-", "12:", "12:+-", "12", "a2:-"])
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


def test_json_polynomial_round_trip(capsys):
    code, out, _ = run(capsys, ["pplus", "-n", "4", "-i", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert poly_from_json(data, n=4) == saturated_fiber_poly(4, 1)
    # Re-serializing the parsed polynomial reproduces the same JSON text.
    again = json.dumps(poly_to_json(poly_from_json(data, n=4)),
                       sort_keys=True)
    assert again == json.dumps(data, sort_keys=True)


def test_json_terms_accumulate_into_one_polynomial():
    data = [{"exp": {"11": 1}, "coeff": "1"}, {"exp": {"12": 2}, "coeff": "1/2"},
            {"exp": {"11": 1}, "coeff": "-1"}, {"exp": {"12": 2}, "coeff": "1/2"}]
    assert poly_from_json(data, n=2) == parse_poly("x12*x12", n=2)


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
# that a change to the verification route, or to the lattice and grading
# values behind ``grading``, ``basis`` and ``torsion``, cannot change what
# is printed.
RECORD_STREAM_DIGESTS = {
    "verify-decomp --json -n 4 --bound 10":
        "e6b69ef7c561872bd2e44500ffd48859fe9ae33326c1365fa64d1a65b1709d3d",
    "verify-link --json -n 3 --bound 8 --omit 12:-":
        "60aa8aa9b087ab51948fe9018e13fbffb20d4a3912b7b99037e67e70fb3a5990",
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
}


@pytest.mark.parametrize("args", sorted(RECORD_STREAM_DIGESTS))
def test_record_stream_digest(args):
    src = str(Path(verolink.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "verolink.cli", *args.split()],
                          capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert hashlib.sha256(done.stdout).hexdigest() == RECORD_STREAM_DIGESTS[args]
