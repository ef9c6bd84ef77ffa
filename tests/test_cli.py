import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

import oracles
from conftest import FIXTURES, SRC
from supercochain import cli
from supercochain import io as sio
from supercochain.errors import ParseError, UsageError, ValidationError
from supercochain.superalgebra import check_jacobi
from supercochain.triple import BlockComplex


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_minimal_algebra(tmp_path):
    p = tmp_path / "min.json"
    p.write_text(json.dumps({"algebra": {"even_basis": ["x"], "odd_basis": []}}))
    pf = sio.parse(p)
    assert pf.algebra.space.dims == (1, 0)


def test_parse_rejects_zero_denominator(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "algebra": {
                    "even_basis": ["x", "y"],
                    "odd_basis": [],
                    "bracket": [
                        {"left": "x", "right": "y", "value": [{"basis": "x", "coeff": "1/0"}]}
                    ],
                }
            }
        )
    )
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_parse_rejects_duplicate_labels(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({"algebra": {"even_basis": ["x", "x"], "odd_basis": []}}))
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_parse_rejects_parity_violation(tmp_path):
    p = tmp_path / "par.json"
    p.write_text(
        json.dumps(
            {
                "algebra": {
                    "even_basis": ["x"],
                    "odd_basis": ["y"],
                    "bracket": [
                        {"left": "x", "right": "x", "value": [{"basis": "y", "coeff": "1"}]}
                    ],
                }
            }
        )
    )
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_parse_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    with pytest.raises(ParseError):
        sio.parse(p)


def test_parse_rejects_unknown_section(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(json.dumps({"algebrra": {}}))
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_parse_validates_requested_commands(tmp_path):
    p = tmp_path / "req.json"
    p.write_text(
        json.dumps(
            {"algebra": {"even_basis": ["x"], "odd_basis": []}, "requested": ["fly-to-moon"]}
        )
    )
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_golden_gl11_parses_and_passes():
    pf = sio.parse(FIXTURES / "gl11.json")
    assert pf.algebra.space.dims == (2, 2)
    assert check_jacobi(pf.algebra).ok


def test_bracket_entry_with_swapped_order(tmp_path):
    # [f, e] = -f should land on the same structure as [e, f] = f
    p = tmp_path / "swapped.json"
    p.write_text(
        json.dumps(
            {
                "algebra": {
                    "even_basis": ["e"],
                    "odd_basis": ["f"],
                    "bracket": [
                        {"left": "f", "right": "e", "value": [{"basis": "f", "coeff": "-1"}]}
                    ],
                }
            }
        )
    )
    pf = sio.parse(p)
    assert pf.algebra.bracket_basis(0, 1) == pf.algebra.bracket_basis(0, 1)
    from fractions import Fraction as F

    assert pf.algebra.bracket_basis(0, 1) == (F(0), F(1))


def test_check_algebra_exit_codes(capsys, tmp_path):
    code, out = run_cli(["check-algebra", str(FIXTURES / "gl11.json")], capsys)
    assert code == 0
    assert "PASS" in out
    bad = tmp_path / "bad_alg.json"
    bad.write_text(
        json.dumps(
            {
                "algebra": {
                    "even_basis": ["a", "b"],
                    "odd_basis": [],
                    "bracket": [
                        {"left": "a", "right": "a", "value": [{"basis": "b", "coeff": "1"}]}
                    ],
                }
            }
        )
    )
    code, out = run_cli(["check-algebra", str(bad)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_missing_file_is_exit_2(capsys):
    code, _ = run_cli(["check-algebra", "no-such-file.json"], capsys)
    assert code == 2


def test_bad_max_n_is_exit_2(capsys):
    code, _ = run_cli(["cohomology", str(FIXTURES / "solvable2.json"), "--max-n", "0"], capsys)
    assert code == 2
    # a negative number is a value, refused by the same range check
    assert cli.main(["cohomology", str(FIXTURES / "solvable2.json"), "--max-n", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-n must be >= 1\n"


def test_missing_section_is_exit_2(capsys):
    code, _ = run_cli(["check-triple", str(FIXTURES / "gl11.json")], capsys)
    assert code == 2


def _exit_and_stderr(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def test_overlong_number_literal_is_exit_2(capsys, tmp_path):
    p = tmp_path / "long.json"
    p.write_text('{"algebra": {"even_basis": ["x"], "odd_basis": [], "n": ' + "9" * 4301 + "}}")
    code, err = _exit_and_stderr(["check-algebra", str(p)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_deeply_nested_json_is_exit_2(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000 + "]" * 200_000)
    code, err = _exit_and_stderr(["check-algebra", str(p)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_utf8_file_is_exit_2(capsys, tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"algebra": {"even_basis": ["\xe9"], "odd_basis": []}}')
    code, err = _exit_and_stderr(["check-algebra", str(p)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_action_value_of_wrong_parity_is_rejected(tmp_path):
    doc = json.loads((FIXTURES / "aff11_adjoint.json").read_text())
    # e is even, so e acting on e must stay even; f is odd
    doc["action"].append({"g": "e", "h": "e", "value": [{"basis": "f", "coeff": "1"}]})
    p = tmp_path / "bad_action.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        sio.parse(p)


def test_deformation_order_beyond_limit_is_exit_2(capsys, tmp_path):
    from supercochain.deformation import MAX_ORDER

    doc = json.loads((FIXTURES / "solvable2.json").read_text())
    doc["deformation"]["order"] = 10**9
    p = tmp_path / "huge_order.json"
    p.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(["deform", str(p)], capsys)
    assert code == 2 and len(err.splitlines()) == 1
    flag = ["--order", str(MAX_ORDER + 1)]
    code, err = _exit_and_stderr(["ch-deform", str(FIXTURES / "solvable2.json")] + flag, capsys)
    assert code == 2 and len(err.splitlines()) == 1


def _deformation_with(tmp_path, edit):
    doc = json.loads((FIXTURES / "solvable2.json").read_text())
    edit(doc["deformation"])
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(doc))
    return p


def test_boolean_deformation_order_is_exit_2(capsys, tmp_path):
    p = _deformation_with(tmp_path, lambda d: d.update(order=True))
    code, err = _exit_and_stderr(["deform", str(p), "--format", "json"], capsys)
    assert code == 2 and len(err.splitlines()) == 1


def test_boolean_coefficient_order_is_exit_2(capsys, tmp_path):
    p = _deformation_with(tmp_path, lambda d: d["coefficients"][0].update(order=True))
    code, err = _exit_and_stderr(["deform", str(p), "--format", "json"], capsys)
    assert code == 2 and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["deform", "ch-deform"])
def test_coefficient_block_above_the_order_is_exit_2(capsys, tmp_path, command):
    # the block names an unknown label; it must be refused, not skipped unread
    block = {"order": 7, "pi": [{"left": "x", "right": "x1", "value": []}]}
    p = _deformation_with(tmp_path, lambda d: d["coefficients"].append(block))
    code, err = _exit_and_stderr([command, str(p), "--format", "json"], capsys)
    assert code == 2 and err.splitlines() == [
        "error: deformation: coefficient block of order 7 exceeds the order 1"
    ]


@pytest.mark.parametrize("coeff", ["1_0", " 1 ", "\u0661"])
def test_non_ascii_integer_coefficient_is_exit_2(capsys, tmp_path, coeff):
    doc = json.loads((FIXTURES / "gl11.json").read_text())
    doc["algebra"]["bracket"][0]["value"][0]["coeff"] = coeff
    p = tmp_path / "literal.json"
    p.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(["check-algebra", str(p)], capsys)
    assert code == 2 and len(err.splitlines()) == 1


def test_even_self_bracket_is_reported_not_internal(capsys, tmp_path):
    doc = json.loads((FIXTURES / "aff11_adjoint.json").read_text())
    # [e, e] != 0 for the even e breaks super-skew-symmetry
    doc["g"]["bracket"].append({"left": "e", "right": "e", "value": [{"basis": "e", "coeff": "1"}]})
    p = tmp_path / "even_square.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(["check-triple", str(p), "--format", "json"], capsys)
    assert code == 1
    verdicts = {v["name"]: v["ok"] for v in json.loads(out)["verdicts"]}
    assert verdicts["g.super_skew"] is False


def test_internal_error_maps_to_exit_3(capsys, monkeypatch):
    from supercochain.errors import InternalInvariantError

    def boom(pf, flags):
        raise InternalInvariantError("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "check-algebra", boom)
    code, _ = run_cli(["check-algebra", str(FIXTURES / "gl11.json")], capsys)
    assert code == 3


@pytest.mark.parametrize("command,fixture", [("deform", "solvable2"), ("ch-deform", "aff11_adjoint")])
def test_infinitesimal_that_disagrees_with_its_residual_is_exit_3(capsys, monkeypatch, command, fixture):
    # each file's infinitesimal is a nonzero cocycle; a differential that returns its
    # argument makes the cocycle test fail while the residual at its order still vanishes
    monkeypatch.setattr(BlockComplex, "d", lambda self, blocks: blocks)
    code, err = _exit_and_stderr([command, str(FIXTURES / f"{fixture}.json"), "--format", "json"], capsys)
    assert code == 3
    assert err.startswith("internal invariant violated: ")
    assert "Traceback" not in err


def test_check_triple_lists_the_triple_checks_before_the_residual(capsys):
    code, out = run_cli(["check-triple", str(FIXTURES / "aff11_adjoint.json"), "--format", "json"], capsys)
    assert code == 0
    assert [v["name"] for v in json.loads(out)["verdicts"]] == [
        "g.super_skew", "g.jacobi", "h.super_skew", "h.jacobi", "action",
        "mc_residual.ggg", "mc_residual.ggh", "mc_residual.ghh", "mc_residual.hhh",
    ]


def test_the_parser_and_the_cli_know_the_same_commands():
    assert set(cli._HANDLERS) == set(sio.COMMANDS)
    assert all(f"\n  {command} " in cli._USAGE for command in cli._HANDLERS)


@pytest.mark.parametrize(
    "fixture", ["solvable2", "abelian_mixed", "aff11_adjoint", "mixed21"]
)
def test_check_triple_fixtures_pass(capsys, fixture):
    code, _ = run_cli(["check-triple", str(FIXTURES / f"{fixture}.json")], capsys)
    assert code == 0


def test_check_crossed_pass_and_fail(capsys):
    code, _ = run_cli(["check-crossed", str(FIXTURES / "aff11_adjoint.json")], capsys)
    assert code == 0
    code, out = run_cli(["check-crossed", str(FIXTURES / "crossed_bad.json")], capsys)
    assert code == 1
    # the witnessing basis pair is printed
    assert "(e, f)" in out


def test_cohomology_golden_table(capsys):
    code, out = run_cli(
        ["cohomology", str(FIXTURES / "solvable2.json"), "--max-n", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["cohomology"] == {
        "1": {"even": 1, "odd": 0},
        "2": {"even": 0, "odd": 0},
        "3": {"even": 0, "odd": 0},
    }


def test_cohomology_parity_filter(capsys):
    code, out = run_cli(
        [
            "cohomology",
            str(FIXTURES / "aff11_adjoint.json"),
            "--max-n",
            "2",
            "--parity",
            "even",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["cohomology"]["1"] == {"even": 1}


def test_ch_cohomology_fixture(capsys):
    code, out = run_cli(
        ["ch-cohomology", str(FIXTURES / "aff11_adjoint.json"), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["cohomology"]["1"] == {"even": 1, "odd": 1}


def test_deform_fixture(capsys):
    code, out = run_cli(["deform", str(FIXTURES / "solvable2.json"), "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["infinitesimal"] == {"is_cocycle": True, "order": 1}


def test_ch_deform_fixture(capsys):
    code, out = run_cli(
        ["ch-deform", str(FIXTURES / "aff11_adjoint.json"), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["infinitesimal"] == {"is_cocycle": True, "order": 1}
    assert all(entry["ok"] for entry in report["residuals"])


def test_failing_deformations_report_the_hand_computed_defects(capsys):
    """deform_bad.json: g = <x | y> abelian acting by zero on aff(1|1), [e, f] = f, with D = 0.

    deform, rho_1(x) = id_h: at order 1 equation (4) at (x; e, f) reads
    rho_1(x) [e, f] = f on the left and [rho_1(x) e, f] + [e, rho_1(x) f] = 2f
    on the right, a defect of -f; every other block and order vanishes.
    ch-deform, D_1 = (x -> e, y -> f): d D_1 = 0, as D, rho and [x, y] are 0,
    and the order-2 coefficient of [D(t) x, D(t) y] is [D_1 x, D_1 y] = f at (x, y).
    """
    path = str(FIXTURES / "deform_bad.json")
    code, out = run_cli(["check-crossed", path, "--format", "json"], capsys)
    assert code == 0
    code, out = run_cli(["deform", path, "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    defect = {"g_slots": ["x"], "h_slots": ["e", "f"], "value": {"f": "-1"}}
    assert report["residuals"] == [
        {"order": 0, "ok": True},
        {"order": 1, "ok": False, "witnesses": {"ghh": [defect]}},
        {"order": 2, "ok": True},
    ]
    assert report["infinitesimal"] == {"order": 1, "is_cocycle": False}
    code, out = run_cli(["ch-deform", path, "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    defect = {"g_slots": ["x", "y"], "h_slots": [], "value": {"f": "1"}}
    assert report["residuals"] == [
        {"order": 0, "ok": True},
        {"order": 1, "ok": True},
        {"order": 2, "ok": False, "witnesses": [defect]},
    ]
    assert report["infinitesimal"] == {"order": 1, "is_cocycle": True}


def test_deform_order_flag_truncates(capsys):
    code, out = run_cli(
        ["deform", str(FIXTURES / "abelian_mixed.json"), "--order", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert [e["order"] for e in report["residuals"]] == [0, 1]


def test_report_json_round_trips_bytes(capsys):
    _, out = run_cli(
        ["check-triple", str(FIXTURES / "aff11_adjoint.json"), "--format", "json"], capsys
    )
    assert sio.report_to_json(json.loads(out)) == out


def test_json_reports_are_deterministic(capsys):
    args = ["cohomology", str(FIXTURES / "aff11_adjoint.json"), "--max-n", "2", "--format", "json", "--seed", "7"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    assert json.loads(first)["parameters"]["seed"] == 7


# Command lines for the parser, against argparse: options before, between and
# after the positionals, --opt=value, every unique prefix, repeats, --, negative
# numbers, int() forms, and each kind of line argparse refused; -h among them.
PF = "p.json"
PARSER_LINES = [
    ["cohomology", PF],
    ["--max-n", "3", "cohomology", PF],
    ["cohomology", "--parity", "odd", PF, "--seed", "4"],
    ["cohomology", PF, "--format", "json", "--order", "2"],
    ["--seed", "1", "deform", "--order", "3", PF, "--format", "text"],
    ["cohomology", PF, "--max-n=3", "--parity=even", "--format=json", "--order=2", "--seed=-7"],
    ["cohomology", PF, "--max-n", "1", "--max-n", "4"],
    ["cohomology", PF, "--parity", "odd", "--par", "even", "--parity=both"],
    ["cohomology", PF, "--seed=1", "--se", "2", "--s=3"],
    ["--", "cohomology", PF],
    ["cohomology", "--", PF],
    ["cohomology", PF, "--"],
    ["--max-n", "3", "--", "cohomology", "-f"],
    ["cohomology", "--", "--max-n"],
    ["cohomology", "--max-n", "3", PF, "--"],
    ["cohomology", PF, "--seed", "1", "--"],
    ["cohomology", PF, "--", "extra"],
    ["cohomology", PF, "--max-n", "--", "3"],
    ["cohomology", PF, "--max-n", "-1"],
    ["cohomology", PF, "--seed", "-5", "--order=-2"],
    ["cohomology", "-5"],
    ["cohomology", PF, "--seed", "-1.5"],
    ["cohomology", PF, "--seed", "-x"],
    ["cohomology", PF, "--seed", "-1 2"],
    ["cohomology", "-f oo"],
    ["cohomology", PF, "--max-n", "+3"],
    ["cohomology", PF, "--max-n", "3_0"],
    ["cohomology", PF, "--max-n", " 3 "],
    ["cohomology", PF, "--max-n", "\u0663"],
    ["cohomology", PF, "--max-n", "0003", "--seed", "-0"],
    ["cohomology", PF, "--max-n"],
    ["cohomology", PF, "--parity", "--format", "json"],
    ["cohomology", PF, "--order="],
    ["cohomology", PF, "--max-n", "3.0"],
    ["cohomology", PF, "--max-n", "x"],
    ["cohomology", PF, "--max-n", ""],
    ["cohomology", PF, "--max-n", "0x10"],
    ["cohomology", PF, "--seed", "1e3"],
    ["cohomology", PF, "--max-n", "3__0"],
    ["cohomology", PF, "--parity", "EVEN"],
    ["cohomology", PF, "--format=yaml"],
    ["Cohomology", PF],
    ["cohomology", PF, "--bogus"],
    ["cohomology", PF, "-x"],
    ["cohomology", PF, "--bogus=1"],
    ["cohomology", PF, "--max-n-x", "3"],
    ["cohomology", PF, "--bogus\nx"],
    ["cohomology", PF, "extra\nline"],
    ["--=a\nb", "cohomology", PF],
    ["--=1", "cohomology", PF],
    ["cohomology", PF, "---"],
    [],
    ["cohomology"],
    ["cohomology", "--max-n", "3"],
    ["cohomology", PF, "extra"],
    ["-h"],
    ["--help"],
    ["cohomology", PF, "-h"],
    ["-hh"],
    ["-h=h"],
    ["--bogus", "-h"],
    ["cohomology", "a", "b", "c", "-h"],
    ["bogus", "-h"],
    ["-h", "bogus"],
    ["-h", "--=x"],
    ["cohomology", PF, "--max-n", "x", "-h"],
    ["cohomology", PF, "--parity", "-h"],
    ["-hx"],
    ["-h="],
    ["--help=1"],
    ["cohomology", "--", "-h"],
]
PARSER_LINES += [
    ["cohomology", PF, *form]
    for name, value in (("--max-n", "3"), ("--parity", "odd"), ("--format", "json"), ("--order", "1"), ("--seed", "5"))
    for k in range(3, len(name) + 1)
    for form in ([name[:k], value], [f"{name[:k]}={value}"])
]
PARSER_LINES += [["cohomology", PF, "--help"[:k]] for k in range(3, 7)]


def _argparse_reading(parser, argv):
    """The flags argparse read from ``argv``, or the code of its ``SystemExit``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _our_reading(argv):
    try:
        flags = cli.parse_args(argv)
    except UsageError:
        return 2
    return 0 if flags is None else vars(flags)


@pytest.mark.parametrize("argv", PARSER_LINES, ids=str)
def test_parser_agrees_with_argparse(argv, capsys):
    """A line argparse accepted gives its values; one it refused (exit 2) is refused by ``main``
    with one ``error:`` line; ``-h`` prints the usage and returns 0."""
    expected = _argparse_reading(oracles.argparse_parser(cli._HANDLERS), argv)
    if isinstance(expected, dict):
        assert vars(cli.parse_args(argv)) == expected
        return
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    if code == 0:
        assert (out, err) == (cli._USAGE, "")
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


def test_parser_agrees_with_argparse_on_every_short_line():
    """Every line of at most four tokens drawn from the ones below, but for a second ``--``
    (``test_a_double_dash_value_is_its_text``)."""
    tokens = ("deform", PF, "--", "-h", "--max-n", "-1", "--p=odd", "--bogus", "--=x", "-x y", "-hh")
    parser = oracles.argparse_parser(cli._HANDLERS)
    lines = 0
    for n in range(5):
        for argv in map(list, itertools.product(tokens, repeat=n)):
            if argv.count("--") < 2:
                assert _our_reading(argv) == _argparse_reading(parser, argv), argv
                lines += 1
    assert lines > 15000


def test_a_double_dash_value_is_its_text(capsys):
    """argparse dropped a ``--`` given as a value and left an empty list: ``--order=--`` ended
    in a traceback and ``--parity=--`` ran as ``both``.  Here the value is the text ``--``."""
    path = str(FIXTURES / "solvable2.json")
    for flag in ("--order=--", "--parity=--", "--max-n=--"):
        code, err = _exit_and_stderr(["deform", path, flag], capsys)
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith(f"error: argument {flag[:-3]}")
    assert cli.parse_args(["check-algebra", "--", "--"]).file == "--"


def _entry_env():
    """The environment of a ``python -m supercochain`` child.

    Stdout is left block-buffered (no ``PYTHONUNBUFFERED``), so output the
    entry fails to flush before its hard exit is lost.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _entry(argv, stdout, env=None):
    return subprocess.run(
        [sys.executable, "-m", "supercochain", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=_entry_env() if env is None else env,
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["check-algebra", "gl11.json"], 0),
        (["check-crossed", "crossed_bad.json"], 1),
        (["check-triple", "gl11.json"], 2),
        (["cohomology", "solvable2.json", "--max-n", "0"], 2),
        (["no-such-command", "gl11.json"], 2),
        (["check-algebra", "gl11.json", "--help"], 0),
        (["cohomology", "solvable2.json", "--max-n", "x"], 2),
    ],
    ids=["ok", "check-failed", "missing-section", "max-n-0", "bad-choice", "help", "bad-option-value"],
)
def test_module_entry_point_subprocess(argv, expected, capsys, tmp_path):
    argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:], "--format", "json"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == expected

    piped = _entry(argv, subprocess.PIPE)
    with open(tmp_path / "out", "wb") as fh:
        to_file = _entry(argv, fh)
    for proc, stdout in ((piped, piped.stdout), (to_file, (tmp_path / "out").read_bytes())):
        assert proc.returncode == code
        assert stdout == out.encode()
        assert proc.stderr == err.encode()


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_module_entry_point_on_a_closed_pipe_reports_without_traceback(unbuffered):
    """Block-buffered stdout fails at the flush after ``main()``, unbuffered
    stdout at the write inside it; both end the same way."""
    env = _entry_env()
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _entry(["check-algebra", str(FIXTURES / "gl11.json"), "--format", "json"], write_end, env)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert b"BrokenPipeError" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command,fixture",
    [
        ("check-crossed", "aff11_adjoint"),
        ("check-crossed", "crossed_bad"),
        ("ch-cohomology", "mixed21"),
        ("ch-cohomology", "crossed_bad"),
        ("ch-deform", "aff11_adjoint"),
    ],
)
def test_crossed_commands_check_the_identity_once(capsys, monkeypatch, command, fixture):
    from supercochain import crossed

    calls = []
    real = crossed.check_crossed

    def counting(D):
        calls.append(D)
        return real(D)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("supercochain") and hasattr(mod, "check_crossed"):
            monkeypatch.setattr(mod, "check_crossed", counting)
    code, _ = run_cli([command, str(FIXTURES / f"{fixture}.json"), "--format", "json"], capsys)
    assert code in (0, 1)
    assert len(calls) == 1


# Section-stripped copies of abelian_mixed.json: the sections each drops, and the one
# stderr line of cohomology, ch-cohomology, deform and ch-deform on it (None: the
# command runs).  A reader requires its base sections and builds the triple or D before
# it requires "deformation", so a file missing both names only the base section.
STRIPPED = {
    "no_deformation": (("deformation",), (None, None, "deformation", "deformation")),
    "no_action": (("action", "deformation"), ("action",) * 4),
    "no_D": (("D", "deformation"), (None, "crossed", "deformation", "crossed")),
    "g_only": (("h", "action", "D", "deformation"), ("h, action", "h, action, crossed") * 2),
    "empty": (("g", "h", "action", "D", "deformation"), ("g, h, action", "g, h, action, crossed") * 2),
}


@pytest.mark.parametrize("stripped", sorted(STRIPPED))
def test_missing_sections_are_refused_in_reading_order(capsys, tmp_path, stripped):
    drop, lines = STRIPPED[stripped]
    doc = json.loads((FIXTURES / "abelian_mixed.json").read_text())
    p = tmp_path / f"{stripped}.json"
    p.write_text(json.dumps({k: v for k, v in doc.items() if k not in drop}))
    for command, missing in zip(("cohomology", "ch-cohomology", "deform", "ch-deform"), lines):
        code = cli.main([command, str(p), "--format", "json"])
        out, err = capsys.readouterr()
        if missing is None:
            assert (code, err) == (0, "") and json.loads(out)["cohomology"], command
        else:
            assert (code, out, err) == (2, "", f"error: file is missing required section(s): {missing}\n"), command


def test_failing_triple_checks_stop_each_command_before_its_complex(capsys, tmp_path):
    # [e, e] = e for the even e breaks g.super_skew; check-crossed then stops at the
    # triple verdicts, while the ch-* commands still report crossed_identity
    doc = json.loads((FIXTURES / "aff11_adjoint.json").read_text())
    doc["g"]["bracket"].append({"left": "e", "right": "e", "value": [{"basis": "e", "coeff": "1"}]})
    p = tmp_path / "even_square.json"
    p.write_text(json.dumps(doc))
    triple = ["g.super_skew", "g.jacobi", "h.super_skew", "h.jacobi", "action"]
    for command, names in [
        ("check-crossed", triple),
        ("cohomology", triple),
        ("deform", triple),
        ("ch-cohomology", triple + ["crossed_identity"]),
        ("ch-deform", triple + ["crossed_identity"]),
    ]:
        code, out = run_cli([command, str(p), "--format", "json"], capsys)
        report = json.loads(out)
        assert code == 1 and report["ok"] is False, command
        assert [v["name"] for v in report["verdicts"]] == names, command
        assert report["verdicts"][0]["ok"] is False, command
        assert not {"cohomology", "residuals", "infinitesimal"} & set(report), command
