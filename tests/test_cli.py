"""Command line behavior: formats, exit codes, determinism."""

import errno
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from lagrforge import cli
from lagrforge.cli import run
from lagrforge.expr import DEFAULT_SEED

ROOT = pathlib.Path(__file__).resolve().parent.parent
SO2_PATH = ROOT / "examples" / "so2.grp"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_text(capsys):
    code, out, _ = capture(capsys, ["parse", "so2"])
    assert code == 0
    assert "group so2: 1 parameter(s), 2 coordinate(s)" in out
    assert "axioms: ok" in out
    assert "composition" in out


def test_parse_json(capsys):
    code, out, _ = capture(capsys, ["parse", "so2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["group"]["coords"] == ["X1", "X2"]
    verdicts = {c["axiom"]: c["verdict"]
                for c in payload["axioms"]["checks"]}
    assert verdicts["composition"] == "Numeric"
    assert payload["axioms"]["seed"] == 0xC0FFEE


def test_run_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert capture(capsys, ["parse", "so2"])[0] == 0
            with pytest.raises(SystemExit) as exc:
                run(["parse"])
            assert exc.value.code == 2
            assert "required: input" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_parse_accepts_file_path(capsys):
    code, out, _ = capture(capsys, ["parse", str(SO2_PATH)])
    assert code == 0
    assert "group so2" in out


def test_input_errors(capsys):
    code, _, err = capture(capsys, ["parse", "nope"])
    assert code == 2 and "error:" in err
    code, _, err = capture(capsys, ["parse", "./missing.grp"])
    assert code == 2 and "no such file" in err
    code, _, err = capture(capsys, ["verify", "so2", "--params", "a1=x"])
    assert code == 2 and "not an exact rational" in err
    code, _, err = capture(capsys, ["verify", "so2", "--params", "a1"])
    assert code == 2 and "NAME=VALUE" in err


def test_derive_text(capsys):
    code, out, _ = capture(capsys, ["derive", "so2"])
    assert code == 0
    assert "phi[1][1] = X2' + X1'_g" in out
    assert "phi[2][1] = -X1' + X2'_g" in out
    assert "X1'_g = -X2'" in out
    assert "X2'_g = X1'" in out


def test_derive_latex(capsys):
    code, out, _ = capture(capsys, ["derive", "so2", "--format", "latex"])
    assert code == 0
    assert "\\begin{aligned}" in out
    assert "\\varphi^{1}_{1} &= X'^{2} + X'^{1}_{1} \\\\" in out


# A valid group whose sampled on-action residual (rounding in a 33-term
# difference) exceeds the default 1e-9 but not 1e-6.
POWER16 = """
group power16 {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g)^16, X2*(1 + g)^16);
}
"""


def test_derive_checks_the_action_under_the_sampling_flags(capsys, tmp_path):
    path = tmp_path / "power16.grp"
    path.write_text(POWER16)
    code, out, err = capture(capsys, ["derive", str(path), "--tol", "1e-6",
                                      "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["lie"]["on_action"] == [["NumericallyEqual"]] * 2


def test_solve_json(capsys):
    code, out, _ = capture(capsys, ["solve", "so2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ansatz"]["unknowns"] == 8
    assert payload["system"] == {"rows": 12, "unknowns": 8, "rank": 6}
    assert payload["family"]["dimension"] == 2
    assert payload["family"]["free_params"] == ["a1", "a2"]
    assert payload["family"]["multipliers"]["lambda[1][1][1]"] == \
        "(+ (* a1 X1') (* a2 X2'))"
    assert payload["family"]["multipliers"]["lambda[1][2][1]"] == \
        "(+ (* a1 X2') (* -1 a2 X1'))"


def test_solve_output_is_deterministic(capsys):
    _, first, _ = capture(capsys, ["solve", "so2", "--format", "json"])
    _, second, _ = capture(capsys, ["solve", "so2", "--format", "json"])
    assert first == second


def test_verify_degenerate_exits_nonzero(capsys):
    code, out, _ = capture(capsys, ["verify", "so2", "--params", "a2=0"])
    assert code == 1
    assert "converse check: Underdetermined" in out
    assert "result: FAILED" in out


def test_verify_defaults_to_generic_params(capsys):
    code, out, _ = capture(capsys, ["verify", "so2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["params"] == {"a1": "3", "a2": "2/7"}
    assert payload["report"]["converse"]["status"] == "Match"


def test_verify_numeric_orbit(capsys):
    code, out, _ = capture(capsys, [
        "verify", "so2", "--params", "a1=0,a2=1", "--numeric",
        "--x0", "1,0", "--g-end", str(2 * math.pi), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    orbit = payload["report"]["orbit"]
    assert orbit["ok"] is True
    assert orbit["steps"] == 6284
    assert orbit["max_deviation"] <= 1e-6


def test_seed_flag_and_default(capsys):
    _, out, _ = capture(capsys, ["parse", "so2", "--format", "json"])
    assert json.loads(out)["axioms"]["seed"] == DEFAULT_SEED
    _, out, _ = capture(capsys, ["parse", "so2", "--seed", "9",
                                 "--format", "json"])
    assert json.loads(out)["axioms"]["seed"] == 9


def test_example_so2(capsys):
    code, out, _ = capture(capsys, ["example", "so2"])
    assert code == 0
    assert "orbit check: max deviation" in out
    assert "result: ok" in out
    assert "kinetic identity: ProvedEqual" in out


def test_example_so2_latex(capsys):
    code, out, _ = capture(capsys, ["example", "so2", "--format", "latex"])
    assert code == 0
    assert ("L_{1} &= \\alpha_{1} X'^{1} X'^{1}_{1}"
            " + \\alpha_{1} X'^{2} X'^{2}_{1}"
            " -\\alpha_{2} X'^{1} X'^{2}_{1}"
            " + \\alpha_{2} (X'^{1})^{2}"
            " + \\alpha_{2} X'^{2} X'^{1}_{1}"
            " + \\alpha_{2} (X'^{2})^{2} \\\\") in out


def test_example_affine1(capsys):
    code, out, _ = capture(capsys, ["example", "affine1"])
    assert code == 0
    assert "nullspace dimension 40" in out
    assert "degeneracy scan skipped" in out
    assert "result: ok" in out


def test_example_flags_override_defaults(capsys):
    # restricting the parameter degrees to [0, 0] shrinks the ansatz
    code, out, _ = capture(capsys, ["example", "affine1", "--deg-g-min", "0",
                                    "--format", "json"])
    payload = json.loads(out)
    assert payload["ansatz"]["unknowns"] == 32
    assert code in (0, 1)


# Exit code and sha256 of stdout for each (argv, format), recorded before the
# command handlers were merged into one staged pipeline: any change here is a
# change of output, not a refactor.  The four affine1 verify/example digests
# were re-recorded when the converse check began to print the Lie value of
# each determined jet.
GOLDEN = [
    ("parse so2", "text", 0,
     "f75fd83421fec697523091979e3582514dbe9f5421efdbb738fd83979eefddc6"),
    ("parse so2", "json", 0,
     "0a6a103e5b25a780bc7b3345b9ebc8c1522399ff9ed78275b4bba62abf045e8f"),
    ("parse so2", "latex", 0,
     "b85888159227104e58e3121ceb08a0210094cbd9fafea604f9adee297928bc38"),
    ("parse affine1", "text", 0,
     "17d6c0a170983fb6eb3d38bfbce71c32e88d8fde2cf202286f58f743e744090c"),
    ("parse affine1", "json", 0,
     "45845bd21c294ba912046014367a1049495d1f5e4d5ed063e2269f1298d58722"),
    ("parse affine1", "latex", 0,
     "22ab1a68c920174a763e60a656c0b417ab0e8bd34da5b64f3730b1ddc45b54d2"),
    ("derive so2", "text", 0,
     "06eb78e5b246911e257b330100b45dbbc5ac01f20a3d38ea0ed9c2a537f04ce2"),
    ("derive so2", "json", 0,
     "0c5a684327cfb9ea51a20385b7de19a66e6d4a400265889b17ff1bb63a299ce1"),
    ("derive so2", "latex", 0,
     "fc27a12bc1d2de49844e38a9d18b21c1ce6be0b6158bc2573f8e16986d51eef7"),
    ("derive affine1", "text", 0,
     "710f6d8ed03ccc18789c9b9e6f36dab7c522f92bc31beca9a710e8e34e24d627"),
    ("derive affine1", "json", 0,
     "0b79e84fb1e0d5ce57b6d31484991ebae5e538d4b570a3ab764451e0da2c698e"),
    ("derive affine1", "latex", 0,
     "a5825b5a8f3cb1b658da10e49d42048fd8e32c7c022f461ca3c3b27ca9e098a7"),
    ("solve so2", "text", 0,
     "bffca13b167d95b605a7009476a4e3b4cf358944436b2dc9eb08e6a0b1309b1a"),
    ("solve so2", "json", 0,
     "e2e7409c473abbbde346dff2ba1460b9fcf007094c117f514fa629f20e5e13f8"),
    ("solve so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("solve affine1 --deg-g-min -1", "text", 0,
     "960a64d99b82e389c432f9271adb884ea9d859ddc595036f9eb95014f1f4a35c"),
    ("solve affine1 --deg-g-min -1", "json", 0,
     "9a706cb3d16582e7ac015bb7d116ad21ff2961732d73380cfb5ee17295c56e8f"),
    ("solve affine1 --deg-g-min -1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    ("verify so2", "text", 0,
     "eb9e5236515adb0ef106545395648f6fea70dd096e910b9a6911eaf766ce508b"),
    ("verify so2", "json", 0,
     "d4eea91fa78414ff7c1d6eddf9461e6263267567167b75ad80de116390beba99"),
    ("verify so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("verify affine1 --deg-g-min -1", "text", 0,
     "54f3e126b39591171cb4ca9f23a0a2ef781dbcea4d5fa66784856eec53c63819"),
    ("verify affine1 --deg-g-min -1", "json", 0,
     "98da9d919a5ad9961cc7986079d651ec8965858ad75605cbb0733a3969b9ad42"),
    ("verify affine1 --deg-g-min -1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    ("verify so2 --params a2=0", "text", 1,
     "ea80b137aede432390f647cea2262eb58245bf570438cf3d4c487a71a384ed25"),
    ("verify so2 --params a2=0", "json", 1,
     "6648e0565672dec33bf13fbce5def38a63af4ecacb2d8e58054d327dca7d7174"),
    ("verify so2 --params a2=0", "latex", 1,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("example so2", "text", 0,
     "2d6a931d0117ede695f68917f92e0f7bcd9185a5140506718c2c0dd2aac0a615"),
    ("example so2", "json", 0,
     "a8a4ddc0ec98377ee11b341b5f5fdb2cb91ef77a91b8e2cbcd103d412132dbfa"),
    ("example so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("example affine1", "text", 0,
     "54f3e126b39591171cb4ca9f23a0a2ef781dbcea4d5fa66784856eec53c63819"),
    ("example affine1", "json", 0,
     "47b294edc075ab07c3c2e3fd784e22afcfea4f7a7453bfedcea0a5f9f30be738"),
    ("example affine1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    # The rest of the benchmark ladder; a `.grp` path is resolved from the
    # repository root.
    ("solve affine1 --deg-x 2 --deg-g-min -1", "json", 0,
     "b75a31ce4e128d1f8bcf48401eb24aea86f79360bd0b19509ca5a8985a5812c4"),
    ("solve affine1 --deg-g-min -1 --deg-g-max 1", "json", 0,
     "4077b7b21c8ac58785f9959a92eca4e0953e3e503b74d0902a1c7894a8bab9c4"),
    ("verify affine1 --deg-g-min -1 --deg-g-max 1", "json", 0,
     "0372b70eae08fd61e9cece527949bf0bd208ea42c2bc467556b650edefe6b3d3"),
    ("verify so2 --deg-x 3", "json", 0,
     "c804603a9f5ce63853328555334a3c8e84a0b27df71ae98a0b47697e500d0a11"),
    ("verify so2 --deg-x 4", "json", 0,
     "9795e676b4dbb74e4a5bb2d05ff6fe83e1ec441f98bcf3ed2ab4d2769d1a544c"),
    ("verify perfbench/groups/se2.grp", "json", 1,
     "8ca9db8e6e0dbcba3976c8964df69639bd447e6d21c39c07e37d493737396312"),
]


@pytest.mark.parametrize("argv,fmt,code,digest", GOLDEN,
                         ids=[f"{a} {f}" for a, f, _, _ in GOLDEN])
def test_golden_output(capsys, argv, fmt, code, digest):
    args = [str(ROOT / a) if a.endswith(".grp") else a for a in argv.split()]
    got, out, err = capture(capsys, args + ["--format", fmt])
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


TEXT_BUILDERS = ("_axioms_text", "_rows_text", "_family_text", "_report_text")
PAYLOAD_BUILDERS = ("_axioms_payload", "_spec_payload", "_lie_payload",
                    "_family_payload", "_report_payload")
LATEX_BUILDERS = ("_latex_lines",)
# The builders of the formats other than the requested one.
UNUSED_BUILDERS = {"json": TEXT_BUILDERS + LATEX_BUILDERS,
                   "text": PAYLOAD_BUILDERS + LATEX_BUILDERS,
                   "latex": TEXT_BUILDERS + PAYLOAD_BUILDERS}


@pytest.mark.parametrize("fmt", sorted(UNUSED_BUILDERS))
@pytest.mark.parametrize("argv,code", [("verify so2", 0), ("example so2", 0),
                                       ("verify so2 --params a2=0", 1),
                                       ("derive so2", 0)])
def test_only_the_requested_format_is_built(capsys, monkeypatch, fmt,
                                            argv, code):
    def refuse(*args):
        raise AssertionError("built output of a format not asked for")
    for name in UNUSED_BUILDERS[fmt]:
        monkeypatch.setattr(cli, name, refuse)
    got, out, err = capture(capsys, argv.split() + ["--format", fmt])
    assert (got, err) == (code, "")
    assert out


# Not a group: X -> g*X + g composed twice is not the action of the sum.
NON_GROUP = """
group bad {
  params: g;
  coords: X;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X*g + g);
}
"""


@pytest.mark.parametrize("command", ["parse", "derive", "solve", "verify"])
def test_failed_group_law_stops_after_axioms(capsys, tmp_path, command):
    path = tmp_path / "bad.grp"
    path.write_text(NON_GROUP)
    code, out, err = capture(capsys, [command, str(path)])
    assert (code, err) == (1, "")
    assert "axioms: FAILED" in out
    assert "composition        Failed" in out
    code, out, err = capture(capsys, [command, str(path), "--format", "json"])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["command"] == command
    assert payload["ok"] is False and payload["axioms"]["ok"] is False
    assert sorted(payload) == ["axioms", "command", "group", "ok"]


def test_overflowing_sample_is_a_rejected_draw(capsys, tmp_path):
    # X^60 composed with itself overflows a float at some sample points
    path = tmp_path / "bad.grp"
    path.write_text(NON_GROUP.replace("X*g + g", "X^60*g + g"))
    code, out, err = capture(capsys, ["parse", str(path)])
    assert (code, err) == (1, "")
    assert "identity_action    Failed" in out
    assert "composition        Failed" in out


@pytest.mark.parametrize("flags,named", [
    (["--g-end", "1e300"], "--g-end 1e+300 and --step 0.001 ask for 1e+303 "
                           "orbit steps; the limit is 1000000"),
    (["--g-end", "nan"], "--g-end must be finite, got nan"),
    (["--g-end", "inf"], "--g-end must be finite, got inf"),
    (["--step", "nan"], "--step must be positive and finite, got nan"),
    (["--g-end", "0"], "--g-end 0.0 leaves no orbit step from the identity "
                       "value 0.0"),
    (["--g-end", "1e-13"], "--g-end 1e-13 leaves no orbit step from the "
                           "identity value 0.0"),
], ids=["g-end-1e300", "g-end-nan", "g-end-inf", "step-nan", "g-end-identity",
        "g-end-below-a-step"])
def test_orbit_input_errors_exit_2(capsys, flags, named):
    code, out, err = capture(capsys, ["example", "so2"] + flags)
    assert (code, out, err) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("x0,part", [
    ("1/0,0", "1/0"), ("1e400,0", "1e400"), ("abc", "abc"), ("1,", ""),
], ids=["zero-denominator", "float-overflow", "not-a-number", "empty"])
def test_malformed_x0_exits_2(capsys, x0, part):
    code, out, err = capture(capsys, ["example", "so2", "--x0", x0])
    assert (code, out) == (2, "")
    assert err == f"error: --x0 takes rationals within float range, " \
                  f"got '{part}'\n"


@pytest.mark.parametrize("flags", [["--params", "a1=1,a1=2"],
                                   ["--params", "a1=1", "--params", "a1=2"]],
                         ids=["one-flag", "two-flags"])
def test_repeated_param_name_exits_2(capsys, flags):
    # the later value used to overwrite the earlier one silently
    code, out, err = capture(capsys, ["verify", "so2"] + flags)
    assert (code, out, err) == (2, "", "error: --params sets 'a1' twice\n")


@pytest.mark.parametrize("flags,named", [
    (["--x0", "abc"], "--x0 takes rationals within float range, got 'abc'"),
    (["--params", "a1=x"], "'x' is not an exact rational"),
], ids=["x0", "params"])
def test_malformed_verify_flags_exit_2_before_the_solve(capsys, monkeypatch,
                                                         flags, named):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_family ran")

    monkeypatch.setattr(cli, "solve_family", no_solve)
    code, out, err = capture(capsys, ["verify", "affine1", "--deg-x", "2",
                                      "--deg-g-min", "-1", "--deg-g-max",
                                      "1"] + flags)
    assert (code, out, err) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("old,new,clause,line", [
    ("X*g + g", "X + g/0", "action", 8),
    ("identity: (0)", "identity: (0^-1)", "identity", 5),
], ids=["action", "identity"])
def test_division_by_zero_in_a_formula_exits_2(capsys, tmp_path, old, new,
                                               clause, line):
    path = tmp_path / "div.grp"
    path.write_text(NON_GROUP.replace(old, new))
    code, out, err = capture(capsys, ["derive", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {line}:3: clause '{clause}' divides by zero\n"


@pytest.mark.parametrize("argv,named", [
    (["verify", "so2", "--samples", "0"],
     "argument --samples: must be at least 1, got 0"),
    (["parse", "so2", "--samples", "-3"],
     "argument --samples: must be at least 1, got -3"),
    (["verify", "so2", "--tol", "-1"],
     "argument --tol: must be finite and positive, got -1"),
    (["parse", "so2", "--tol", "0"],
     "argument --tol: must be finite and positive, got 0"),
    (["solve", "so2", "--tol", "nan"],
     "argument --tol: must be finite and positive, got nan"),
    (["example", "so2", "--orbit-tol", "inf"],
     "argument --orbit-tol: must be finite and non-negative, got inf"),
    (["verify", "so2", "--orbit-tol=-1e-6"],
     "argument --orbit-tol: must be finite and non-negative, got -1e-6"),
    (["parse", "so2", "--samples", "x"],
     "argument --samples: invalid int value: 'x'"),
    (["solve", "so2", "--max-unknowns", "-5"],
     "argument --max-unknowns: must be at least 1, got -5"),
    (["solve", "so2", "--deg-x", "-1"],
     "argument --deg-x: must be at least 0, got -1"),
    (["solve", "so2", "--deg-g-min", "1"],
     "argument --deg-g-min: must be at most 0, got 1"),
    (["solve", "so2", "--deg-g-max", "-1"],
     "argument --deg-g-max: must be at least 0, got -1"),
], ids=["samples-0", "samples-neg", "tol-neg", "tol-zero", "tol-nan",
        "orbit-tol-inf", "orbit-tol-neg", "samples-not-int",
        "max-unknowns-neg", "deg-x-neg", "deg-g-min-pos", "deg-g-max-neg"])
def test_sampling_flags_rejected_at_parsing(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1] == f"lagrforge {argv[0]}: error: {named}"


SHEAR_10_400 = """
group shear {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + 10^400*g*X2, X2);
}
"""


def test_sampling_abort_writes_one_short_stderr_line(tmp_path):
    # every sampled value of the constant 10^400 overflows; with no logging
    # configured the warning reaches stderr, without the expression
    path = tmp_path / "shear.grp"
    path.write_text(SHEAR_10_400)
    proc = subprocess.run(
        [sys.executable, "-m", "lagrforge.cli", "verify", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("sampling aborted: 1001 near-singular or "
                           "overflowing rejections for a 1-term expression\n")


NESTINGS = {
    "paren": lambda d: "(" * d + "X" + ")" * d + " + g",
    "sin": lambda d: "sin(" * d + "X" + ")" * d + " + g",
    "cos-neg": lambda d: "cos(-" * (d // 2) + "X" + ")" * (d // 2) + " + g",
    "neg": lambda d: "-" * d + "X + g",
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
@pytest.mark.parametrize("depth", [200, 3000])
def test_over_deep_nesting_is_an_input_error(capsys, tmp_path, kind, depth):
    path = tmp_path / "deep.grp"
    path.write_text(NON_GROUP.replace("X*g + g", NESTINGS[kind](depth)))
    code, out, err = capture(capsys, ["parse", str(path)])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: 8:\d+: formula nested deeper than 100 "
                        r"levels of .*\n", err)


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_at_the_cap_parses(capsys, tmp_path, kind):
    path = tmp_path / "deep.grp"
    path.write_text(NON_GROUP.replace("X*g + g", NESTINGS[kind](100)))
    code, out, err = capture(capsys, ["parse", str(path)])
    assert err == ""
    assert code in (0, 1) and "axioms:" in out


# Flat chains of 3,000 operands, each a run of one operator.
CHAINS = {
    "+": "(" + " + ".join(["X"] * 3000) + ")/3000 + g",
    "-": "(3000*X" + " - X" * 2999 + ") + g",
    "*": "X + g" + "*1" * 2999,
    "/": "X + g" + "/1" * 2999,
}


@pytest.mark.parametrize("op", sorted(CHAINS))
def test_long_flat_chain_derives(capsys, tmp_path, op):
    path = tmp_path / "chain.grp"
    path.write_text(NON_GROUP.replace("X*g + g", CHAINS[op]))
    code, out, err = capture(capsys, ["derive", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["group"]["action"] == ["(+ g X)"]


def test_directory_input_names_the_cause(capsys, tmp_path):
    code, out, err = capture(capsys, ["parse", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: Is a directory: {tmp_path}\n"


def test_broken_pipe_names_the_cause(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = run(["parse", "so2"])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, "error: Broken pipe\n")


def test_repo_copies_match_bundled():
    bundled = ROOT / "src" / "lagrforge" / "groups"
    for name in ("so2.grp", "affine1.grp"):
        assert (ROOT / "examples" / name).read_bytes() == \
            (bundled / name).read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lagrforge.cli", "parse", "so2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "axioms: ok" in proc.stdout
