"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import lagrforge as lf
from lagrforge import cli, solver
from lagrforge.cli import run
from lagrforge.expr import DEFAULT_SEED, SampleOutcome, sample_batches

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
    assert verdicts["composition"] == "Exact"
    assert payload["axioms"]["seed"] == 0xC0FFEE


@pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
def test_exact_group_laws_hold_at_any_tol(capsys, tol):
    # so2's laws are decided at exact points, where a float tolerance,
    # however small, plays no part
    code, out, err = capture(capsys, ["parse", "so2", "--tol", tol])
    assert (code, err) == (0, "")
    assert "axioms: ok" in out


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
# difference) exceeded the default 1e-9 but not 1e-6 in floats.
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


def test_power16_derives_at_the_default_tol(capsys, tmp_path):
    path = tmp_path / "power16.grp"
    path.write_text(POWER16)
    code, out, err = capture(capsys, ["derive", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["lie"]["on_action"] == [["ExactlyEqual"]] * 2


# sin(1 + X3) is no sum of angles, so this group is decided in floats; its
# values reach about 1e7 and its laws round to about 1e-15 of their size.
POWER16_SINE = """
group power16_sine {
  params: g;
  coords: X1, X2, X3;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g)^16, X2*(1 + g) + g*sin(1 + X3), X3);
}
"""


@pytest.mark.hash_order
def test_parse_decides_a_clashing_group_under_the_flags(capsys, tmp_path):
    path = tmp_path / "power16_sine.grp"
    path.write_text(POWER16_SINE)
    verdicts = {}
    for tol in ("1e-9", "1e-300"):
        code, out, err = capture(capsys, ["parse", str(path), "--tol", tol,
                                          "--seed", "5", "--format", "json"])
        axioms = json.loads(out)["axioms"]
        assert (axioms["samples"], axioms["seed"], err) == (100, 5, "")
        verdicts[tol] = code, [c["verdict"] for c in axioms["checks"]]
    assert verdicts == {"1e-9": (0, ["Numeric"] * 4),
                        "1e-300": (1, ["Numeric", "Failed", "Failed",
                                       "Numeric"])}


def test_derive_checks_the_action_under_the_sampling_flags(capsys, tmp_path,
                                                           monkeypatch):
    # the on-action check of a clashing group samples each phi entry with
    # --samples, --seed and --tol; its residuals are replaced by 1e-7,
    # which --tol 1e-6 admits and the default 1e-9 does not
    path = tmp_path / "power16_sine.grp"
    path.write_text(POWER16_SINE)
    calls = []

    def sampled(batch, syms, samples, seed, describe):
        out = sample_batches(batch, syms, samples, seed, describe)
        if not describe()[0].startswith("a constraint"):
            return out      # a group law, which is sampled through here too
        calls.append((samples, seed))
        return SampleOutcome(1e-7, out.witness, out.aborted)

    monkeypatch.setattr("lagrforge.expr.sample_batches", sampled)
    argv = ["derive", str(path), "--samples", "7", "--seed", "5",
            "--format", "json"]
    code, out, err = capture(capsys, argv + ["--tol", "1e-6"])
    assert (code, err) == (0, "")
    assert json.loads(out)["lie"]["on_action"] == [["NumericallyEqual"]] * 3
    assert calls == [(7, 5)] * 3
    code, _, err = capture(capsys, argv)
    assert code == 2 and "phi[1][1] does not vanish" in err


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


def test_suffixed_free_parameters_print_primed_in_latex(capsys, tmp_path):
    # affine1 with its parameters named a1, a2: the family's first two free
    # parameters become a1_, a2_, which print as alpha primes
    path = tmp_path / "renamed.grp"
    path.write_text(lf.bundled_source("affine1").replace("g1", "a1")
                    .replace("g2", "a2"))
    code, out, err = capture(capsys, ["solve", str(path), "--deg-g-min", "-1",
                                      "--format", "latex"])
    assert (code, err) == (0, "")
    assert "\\alpha'_{1}" in out and "\\alpha'_{2}" in out
    assert "\\alpha_{3}" in out and "\\mathrm" not in out


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
     "f0747387d83e901df904fb5203f5c1d78a94a92d8180c94ab635b823f0c89a51"),
    ("parse so2", "json", 0,
     "ef4d2dac2beb25eacb32de753f4a63015bce50bc1c300d30ea5dd32a886a0ff2"),
    ("parse so2", "latex", 0,
     "b85888159227104e58e3121ceb08a0210094cbd9fafea604f9adee297928bc38"),
    ("parse affine1", "text", 0,
     "ea6d8036b3df9bb99e0da8ba8760f60a7cc31de7c388949d34f9b7682a87d838"),
    ("parse affine1", "json", 0,
     "116626d7119cab5a853a2b706311c69994550e1e00641b033586607c033be7bd"),
    ("parse affine1", "latex", 0,
     "22ab1a68c920174a763e60a656c0b417ab0e8bd34da5b64f3730b1ddc45b54d2"),
    ("derive so2", "text", 0,
     "b015e1e5389781e706ac202eba258f64ffcb76e1722aeee36b76f99a7fd7a7f9"),
    ("derive so2", "json", 0,
     "f24120c390d2a3e78c4d19c5968fdce58a43a698886cd20b698e2a8576875078"),
    ("derive so2", "latex", 0,
     "fc27a12bc1d2de49844e38a9d18b21c1ce6be0b6158bc2573f8e16986d51eef7"),
    ("derive affine1", "text", 0,
     "37479cb83e57a449129d3937e1e0f79ebac2a86bde62417d4d1350bebc0b8a2e"),
    ("derive affine1", "json", 0,
     "55fae89d8d8437e55649fa2c0809d39dd3ae3a568aa8f23d8749dcaf798e9164"),
    ("derive affine1", "latex", 0,
     "a5825b5a8f3cb1b658da10e49d42048fd8e32c7c022f461ca3c3b27ca9e098a7"),
    ("solve so2", "text", 0,
     "c81c340630f203949f621adc466fc683b6f668750144a9cb6042a2cd5890d74f"),
    ("solve so2", "json", 0,
     "963869d5a3fbcd7b4b4c64004f79c56620e445f18896341cfd69d61f75e84a75"),
    ("solve so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("solve affine1 --deg-g-min -1", "text", 0,
     "a23875b116459354feae03f0f710940c9ce6716a48de7db97fd8300b2c7ddfdf"),
    ("solve affine1 --deg-g-min -1", "json", 0,
     "9c51229c064990af0ebcd74899fc42bb8562504e5a10a02834acd71235d6aa13"),
    ("solve affine1 --deg-g-min -1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    ("verify so2", "text", 0,
     "a7b8d8f067ba416233d9be2e480992e5736aee9f882f15257350b0f2f286fdca"),
    ("verify so2", "json", 0,
     "caf22c291f438dad12ff610d3a7029d4c79d0f943e4c4e3952b814db9c35bbbc"),
    ("verify so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("verify affine1 --deg-g-min -1", "text", 0,
     "91d5b31f29f7458debe78acd889ccad2ac998d0520c9041ae8996bb341ba21da"),
    ("verify affine1 --deg-g-min -1", "json", 0,
     "85ba8a0910607d860e5002b573461b0abd807e37b91c0f6a203b3a37cd167250"),
    ("verify affine1 --deg-g-min -1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    ("verify so2 --params a2=0", "text", 1,
     "38c73f94b72f02e2416330b87ea7edd3d3238909de97a2e180863eb01e20354f"),
    ("verify so2 --params a2=0", "json", 1,
     "44dd86f39dc17f9715c07f689e46fd60d884e187e58d1138647fb3d023ffe016"),
    ("verify so2 --params a2=0", "latex", 1,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("example so2", "text", 0,
     "0348a420e30bdfe3fbda93c3c08784848ebd3832717f866a2dbcbef80b52c1bf"),
    ("example so2", "json", 0,
     "89eecfa9718377f360ce417307fc3f3c3af4a063e636a75994f5bd99bd595a48"),
    ("example so2", "latex", 0,
     "804b5d27a7cb1ce00329b6f209a0a723f9f5aa8711abb0856a929932be2cca82"),
    ("example affine1", "text", 0,
     "91d5b31f29f7458debe78acd889ccad2ac998d0520c9041ae8996bb341ba21da"),
    ("example affine1", "json", 0,
     "fd573600c01b0deaac9073c56d4ce86224725389cf4d4ad93b3b815a5b2dfbd3"),
    ("example affine1", "latex", 0,
     "35848f4d1283d98a0fef0e69c682d0c76e914de307bb42db2f28419729f6f446"),
    # The rest of the benchmark ladder; a `.grp` path is resolved from the
    # repository root.  Their text and LaTeX digests were recorded before
    # those formats were spliced like the JSON.
    ("solve affine1 --deg-x 2 --deg-g-min -1", "json", 0,
     "eac34ae710d168698e6694900044c2779310d8d03f52fe21e4706ce98ebb34bc"),
    ("solve affine1 --deg-x 2 --deg-g-min -1", "text", 0,
     "2a2e94ad5a001c619aa0336f88555c7c3cd368afd1699718fac6cf377ff01f6b"),
    ("solve affine1 --deg-x 2 --deg-g-min -1", "latex", 0,
     "b06fa96886db61edfc81b1b67c4965ebbe24eebbd8ef389c133c487e1740d7fc"),
    ("solve affine1 --deg-g-min -1 --deg-g-max 1", "json", 0,
     "2ee6084d6c2deeb8ad62eb83fefefcfb273e56926c50aeae806260e98fdd373f"),
    ("solve affine1 --deg-g-min -1 --deg-g-max 1", "text", 0,
     "e7ac104314b796b43286cdb1ad4f07e54ec4d39f5af78b57b8b5330b24e20255"),
    ("solve affine1 --deg-g-min -1 --deg-g-max 1", "latex", 0,
     "2e0a5d1bc5768b7d42c0be2a88047f6aca5fa7f116021ef237839f2beece9eff"),
    ("verify affine1 --deg-g-min -1 --deg-g-max 1", "json", 0,
     "592622236ba057366d22255f6c63f824ed6e9079af027f9faffba566034b1538"),
    ("verify affine1 --deg-g-min -1 --deg-g-max 1", "text", 0,
     "0beb8e3b7280053ddbda4bbde9cb37acc154081e0a35403d40a37516b02d8e56"),
    ("verify affine1 --deg-g-min -1 --deg-g-max 1", "latex", 0,
     "2e0a5d1bc5768b7d42c0be2a88047f6aca5fa7f116021ef237839f2beece9eff"),
    ("verify so2 --deg-x 3", "json", 0,
     "125a411948cc544aafee2a9a033d7abc8915b41f460e885f49cc3cf7e55ec1be"),
    ("verify so2 --deg-x 3", "text", 0,
     "5861ebfbd854e3ec01ca7316d6f7cc0ea85a657ab84e8f15cdb6f2cf372cc9ef"),
    ("verify so2 --deg-x 3", "latex", 0,
     "578f38d918ddfac271907a2200525221980e2ff027d50ba71d604fd05c34c45b"),
    ("verify so2 --deg-x 4", "json", 0,
     "134e57bb2f5221cebf5eae5c452bff7b790f888968d41026b32d8f03cd352148"),
    ("verify so2 --deg-x 4", "text", 0,
     "655e72d833a5430b4a4eb372a6cf6eb6adbfa7b13313ff01c8a5bf9a06fa81fd"),
    ("verify so2 --deg-x 4", "latex", 0,
     "578f38d918ddfac271907a2200525221980e2ff027d50ba71d604fd05c34c45b"),
    ("verify perfbench/groups/se2.grp", "json", 1,
     "5e1928de79e52d80f683c0029326c4bc877a7af4e32dcebcd6ff1ea6326ae9cb"),
    # SE(2) puts sin(t) and cos(t) inside products and powers, in every
    # printer; recorded before sine and cosine became one node kind.
    ("derive perfbench/groups/se2.grp", "text", 0,
     "7e5c42374d038fdcc1a93e2c57dd9b641e0ae827bf757231c608599287d966cb"),
    ("derive perfbench/groups/se2.grp", "json", 0,
     "f2e76b0cce1dc3306ac3dc928245763bfe5706c2eb2f90e4f9079e0f0a22188b"),
    ("derive perfbench/groups/se2.grp", "latex", 0,
     "b3da69cd0d48feacb721cdbb34d3a77ede8132af87a229490d3aae5f2960429f"),
    ("verify perfbench/groups/se2.grp", "text", 1,
     "d7d955f6cab69201b9383bc8a04675915d5b12a47a898f77e9c7097e69bd284d"),
    ("verify perfbench/groups/se2.grp", "latex", 1,
     "bd8ebd8b8c9472b42de48832852176d05326c9b48a1043c2ff3a697c955c6e14"),
    # Rungs past the benchmark: SE(2)'s first two Match rungs, a large
    # affine1 family, and converse checks at given parameter values, one
    # of which fails (exit 1).
    ("verify perfbench/groups/se2.grp --deg-x 1 --deg-g-max 1", "json", 0,
     "dac7bca2f44091787cee83625200a083fe233177dad3648e6eb9872764a75a58"),
    ("verify perfbench/groups/se2.grp --deg-x 2 --deg-g-min -1", "json", 0,
     "90bd06b1c2643f28c13fb8a9e1dfdfd63f64b7d3c29b6757a1e2cfee22121926"),
    ("verify affine1 --deg-x 2 --deg-g-min -2 --deg-g-max 2", "json", 0,
     "e2bfdfcf61777202280c5f69ad948b21c5f28a0eace19220ceaed2aff22da9cc"),
    ("verify so2 --deg-x 1 --params a1=0,a2=1", "json", 0,
     "810d7a2ea5bd5355ec5f628addf4f1abff5abaf0b6ef5539837f2e58361557ce"),
    ("verify affine1 --deg-x 1 --deg-g-min -1 --deg-g-max 0 "
     "--params a1=1,a2=-1/2", "json", 1,
     "ade8bdb0bc65e4d37dee6548a6f1cd623aeced4e16e8a916c4f3f811e25fc859"),
    # The largest jet matrices any test reads, where a change in the rank
    # the converse check finds would show first: affine1 with 1,024
    # members and SE(2) with 1,308, both Match.
    ("verify affine1 --deg-x 3 --deg-g-min -2 --deg-g-max 2", "json", 0,
     "472fd5a9aed7ffe3b4d44685a521df5e35562c87e782ddf9e4caf853f5085b21"),
    ("verify perfbench/groups/se2.grp --deg-x 4 --deg-g-max 1", "json", 0,
     "ac6a7584363ed93646c79e30ae4b91a547a0e45cb1f6b8d6a283c9d84b43983f"),
]


@pytest.mark.hash_order
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


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("argv", [
    "example so2", "example affine1",
    "verify affine1 --deg-x 1 --deg-g-min -1 --deg-g-max 1",
    "verify perfbench/groups/se2.grp --deg-x 1"])
def test_cli_never_reads_the_expression_reference_path(capsys, monkeypatch,
                                                       argv, fmt):
    # the unknowns as symbols, the multipliers and Lagrangians built from
    # them, and the dense rows over them serve only the tests' reference;
    # SE(2) verifies as FAILED and exits 1 either way
    def refuse(*args):
        raise AssertionError("read the expression reference path")
    args = [str(ROOT / a) if a.endswith(".grp") else a for a in argv.split()]
    with monkeypatch.context() as patched:
        for name in ("unknowns", "lambdas"):
            patched.setattr(solver.MultiplierAnsatz, name, property(refuse))
        for name in ("compose_lagrangian", "_unknown_table"):
            patched.setattr(solver, name, refuse)
        guarded = capture(capsys, args + ["--format", fmt])
    assert guarded[:2] == capture(capsys, args + ["--format", fmt])[:2]


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


@pytest.mark.hash_order
@pytest.mark.parametrize("n", [16, 48])
def test_group_law_cost_is_bounded_by_the_input(capsys, tmp_path, n):
    # the laws are evaluated as values, so the power is never composed
    # with itself as a tree; the failed composition keeps a float witness
    path = tmp_path / "power.grp"
    path.write_text(NON_GROUP.replace("X*g + g", f"(X + g)^{n}"))
    start = time.perf_counter()
    code, out, err = capture(capsys, ["parse", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1
    assert (code, err) == (1, "")
    checks = {c["axiom"]: c for c in json.loads(out)["axioms"]["checks"]}
    assert checks["composition"]["verdict"] == "Failed"
    assert sorted(checks["composition"]["witness"]) == ["X", "g", "g_h"]


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
    (["--g-end", "0"], "--g-end 0.0 leaves no orbit step from the identity "
                       "value 0.0"),
    (["--g-end", "1e-13"], "--g-end 1e-13 leaves no orbit step from the "
                           "identity value 0.0"),
], ids=["g-end-1e300", "g-end-identity", "g-end-below-a-step"])
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
    (["example", "so2", "--g-end", "nan"],
     "argument --g-end: must be finite, got nan"),
    (["example", "so2", "--g-end", "inf"],
     "argument --g-end: must be finite, got inf"),
    (["example", "so2", "--step", "nan"],
     "argument --step: must be finite and positive, got nan"),
    # the converse check fails at a2=0 and the orbit is skipped, so the
    # orbit's own checks would never see these
    (["verify", "so2", "--params", "a2=0", "--numeric", "--x0", "1,0",
      "--g-end", "1", "--step", "-1"],
     "argument --step: must be finite and positive, got -1"),
    (["verify", "so2", "--params", "a2=0", "--numeric", "--x0", "1,0",
      "--g-end", "1", "--step", "0"],
     "argument --step: must be finite and positive, got 0"),
], ids=["samples-0", "samples-neg", "tol-neg", "tol-zero", "tol-nan",
        "orbit-tol-inf", "orbit-tol-neg", "samples-not-int",
        "max-unknowns-neg", "deg-x-neg", "deg-g-min-pos", "deg-g-max-neg",
        "g-end-nan", "g-end-inf", "step-nan", "step-neg-orbit-skipped",
        "step-zero-orbit-skipped"])
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


def plain_sum_product(m):
    """(X1 + g) multiplied by itself m times, with no '^'."""
    return "*".join(["(X1 + g)"] * m)


@pytest.mark.parametrize("action, col, message", [
    ("(X1 + g)^1000000000", 21, "expanding power 1000000000 of a 2-term sum "
     "takes 1000000001000000000 monomial products; at most 100000 are "
     "allowed"),
    ("(X1 + X2 + g)^200", 26, "expanding power 200 of a 3-term sum takes "
     "4060200 monomial products; at most 100000 are allowed"),
    ("(X1 + g)^316", 21, "expanding power 316 of a 2-term sum takes 100172 "
     "monomial products; at most 100000 are allowed"),
    ("X1 + 10^1000000000*g", 20, "power 1000000000 makes a coefficient of "
     "about 3321928095 bits; at most 100000 are allowed"),
    ("X1 + g*(2*X2)^-100001", 27, "power -100001 makes a coefficient of "
     "about 100001 bits; at most 100000 are allowed"),
    # a product merges equal bases before expanding, so the bound is on the
    # summed exponent, at the later factor's
    ("(X1 + g)^300*(X1 + g)^300", 34, "expanding power 600 of a 2-term sum "
     "takes 360600 monomial products; at most 100000 are allowed"),
    ("(X1 + g)^300/(X1 + g)^-20", 35, "expanding power 320 of a 2-term sum "
     "takes 102720 monomial products; at most 100000 are allowed"),
    # a plain sum factor is a power 1 of it, merged the same way, at its '*'
    (plain_sum_product(316), 2846, "expanding power 316 of a 2-term sum "
     "takes 100172 monomial products; at most 100000 are allowed")],
    ids=["sum-1e9", "3-term-sum-200", "sum-past-cap", "number-1e9",
         "coefficient-inverse", "merged-sum-powers", "merged-quotient",
         "plain-sum-product"])
def test_unbounded_power_is_an_input_error(capsys, tmp_path, action, col,
                                           message):
    # the bound is checked while the formula is resolved, at the exponent,
    # before anything is expanded
    path = tmp_path / "power.grp"
    path.write_text(SHEAR_10_400.replace("X1 + 10^400*g*X2", action))
    start = time.perf_counter()
    code, out, err = capture(capsys, ["parse", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: 8:{col}: {message}\n"


@pytest.mark.parametrize("action, terms", [
    ("(X1 + g)^315", 316), ("X1 + (X1 + X2 + g)^-1000000000*g", 2),
    ("X1 + 1^1000000000*g", 2), ("X1 + 10^400*g", 2),
    pytest.param(plain_sum_product(315), 316, id="plain-sum-product")])
def test_power_within_the_bound_parses(action, terms):
    # 315 is the last power of a 2-term sum under the cap, with '^' or as
    # 315 factors; a sum's negative power stays one atom, and a power of 1
    # builds nothing
    spec = lf.parse(SHEAR_10_400.replace("X1 + 10^400*g*X2", action))
    assert len(lf.monomials(spec.action[0])) == terms


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


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the reader is gone, as `lagrforge solve affine1 | head -n 1` leaves
    # it: no message, and the status a shell gives a writer killed by
    # SIGPIPE, whether the output is met at the print or at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "lagrforge.cli",
                               "parse", "so2"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


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


def cli_start_up(before: str, after: str, flags=("-I",)) -> str:
    """What `after` prints in a fresh isolated interpreter that runs
    `before`, then imports lagrforge.cli from src/ and builds its parser,
    as each invocation does before any stage runs."""
    code = (f"import sys\n{before}\nsys.path.insert(0, sys.argv[1])\n"
            f"import lagrforge.cli as cli\ncli.build_parser()\n{after}")
    proc = subprocess.run([sys.executable, *flags, "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_cli_import_leaves_out_dataclasses_and_logging():
    # both are slow to import, and no stage needs them up front
    assert cli_start_up("", "print(sorted({'dataclasses', 'logging'} "
                            "& set(sys.modules)))") == "[]\n"


def test_cli_import_leaves_out_importlib_resources():
    # only reading a bundled group needs it; without `site`, which may load
    # it through a .pth file, nothing at start-up does
    assert cli_start_up("", "print('importlib.resources' in sys.modules)",
                        flags=("-I", "-S")) == "False\n"


def test_cli_import_leaves_out_typing():
    # annotations are strings, so no module needs `typing` at run time;
    # without `site`, which may load it first, nothing at start-up does
    assert cli_start_up("", "print('typing' in sys.modules)",
                        flags=("-I", "-S")) == "False\n"


def test_cli_import_compiles_no_generated_code():
    # generated source (a dataclass's methods, a namedtuple's __new__) is
    # compiled under a '<...>' name; the standard library the package
    # imports is loaded first, so only the package's own import is seen
    made = cli_start_up(
        "import argparse, collections, enum, fractions, functools, "
        "importlib.resources, itertools, json, math, os, random, re, "
        "typing\nmade = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and "
        "str(args[1]).startswith('<') and made.append(args[1]))",
        "print(made)")
    assert made == "[]\n"


@pytest.mark.hash_order
@pytest.mark.parametrize("argv, compiled", [
    (["verify", str(ROOT / "perfbench" / "groups" / "se2.grp"),
      "--deg-x", "1"], []),
    (["example", "so2"], ["<orbit>"]),
])
def test_sampled_checks_compile_nothing(argv, compiled):
    # the sampled equality checks (group laws, Lie constraints, the verify
    # checks) evaluate their draws as batches; only the orbit is compiled
    made = cli_start_up("", (
        "import contextlib, io\nmade = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and "
        "str(args[1]).startswith('<') and made.append(args[1]))\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.run({argv!r})\n"
        "print(made)"))
    assert made == f"{compiled}\n"
