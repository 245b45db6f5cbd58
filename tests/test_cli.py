"""End-to-end tests of the command-line interface."""

import io
import json

import pytest

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


@pytest.mark.parametrize("spec", ["123:-", "1:-", "12:", "12:+-", "12", "a2:-"])
def test_malformed_sign_spec_is_a_usage_error(capsys, monkeypatch, spec):
    code, out, _ = run(capsys, ["verify-link", "-n", "3", "--bound", "2",
                                "--omit", spec])
    assert code == 2 and out == ""
    code, out, _ = run(capsys, ["twist", "--signs", spec],
                       stdin="x11*x23 + x12*x13", monkeypatch=monkeypatch)
    assert code == 2 and out == ""


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