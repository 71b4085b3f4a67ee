"""Group DSL parsing, axiom validation, and rendering."""

import pathlib
import sys

import pytest

import lagrforge as lf
from lagrforge import (ArityMismatchError, Cos, DuplicateClauseError,
                       GroupSyntaxError, Power, Rational, Role, Sin, Sym,
                       UndeclaredSymbolError, canonicalize)

MINI = """
group mini {
  params: t;
  coords: X1;
  identity: (0);
  inverse: (-t);
  multiply: (lhs.t + rhs.t);
  action: (X1 + t + 0*X1^3);
}
"""


def test_bundled_catalog():
    assert lf.bundled_names() == ("affine1", "so2")
    with pytest.raises(KeyError) as err:
        lf.bundled_source("nope")
    assert "affine1, so2" in str(err.value)


def test_parse_so2(so2_spec):
    spec = so2_spec
    assert spec.name == "so2"
    assert [p.name for p in spec.params] == ["g"]
    assert [c.name for c in spec.coords] == ["X1", "X2"]
    assert all(p.role == Role.GROUP_PARAMETER for p in spec.params)
    assert all(c.role == Role.BASE_COORDINATE for c in spec.coords)
    g = Sym(spec.params[0])
    x1, x2 = Sym(spec.coords[0]), Sym(spec.coords[1])
    assert spec.action[0] == canonicalize(x1 * Cos(g) - x2 * Sin(g))
    assert spec.action[1] == canonicalize(x1 * Sin(g) + x2 * Cos(g))
    assert spec.identity == (Rational(0),)
    assert spec.inverse[0] == -g


def test_parse_affine(affine_spec):
    spec = affine_spec
    assert (spec.r, spec.n) == (2, 2)
    g1, g2 = (Sym(p) for p in spec.params)
    assert spec.identity == (Rational(1), Rational(0))
    assert spec.inverse[0] == canonicalize(Power(g1, -1))
    assert spec.inverse[1] == -g2 / g1
    assert spec.action[1] == Rational(1)


def test_mini_group_grammar():
    spec = lf.parse(MINI)
    x1, t = Sym(spec.coords[0]), Sym(spec.params[0])
    # unary minus, powers, and zero coefficients all normalize away
    assert spec.action[0] == x1 + t
    assert spec.inverse[0] == -t


@pytest.mark.parametrize("name", ["so2", "affine1"])
def test_pretty_print_round_trip(name):
    spec = lf.parse(lf.bundled_source(name))
    reparsed = lf.parse(lf.pretty_print(spec))
    assert reparsed == spec  # positions are excluded from equality


def test_syntax_error_positions():
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse("grp x")
    assert (err.value.line, err.value.col) == (1, 1)
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse("group m {\n  junk: (1);\n}")
    assert "unknown clause 'junk'" in str(err.value)
    assert err.value.line == 2


def test_nesting_cap_position():
    from lagrforge.dsl import MAX_NESTING
    assert MAX_NESTING == 100
    opener = "(" * 100 + "sin(" + "X1" + ")" * 101
    source = MINI.replace("X1 + t + 0*X1^3", opener + " + t")
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(source)
    column = source.splitlines()[7].index("sin(") + 1
    assert (err.value.line, err.value.col) == (8, column)
    lf.parse(MINI.replace("X1 + t + 0*X1^3", "-" * 100 + "X1 + t"))


def test_non_ascii_digit_is_an_unexpected_character():
    # '²' is a digit to str.isdigit but not one int() reads
    source = MINI.replace("X1 + t + 0*X1^3", "X1 + t*²")
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(source)
    assert err.value.message == "unexpected character '²'"
    column = source.splitlines()[7].index("²") + 1
    assert (err.value.line, err.value.col) == (8, column)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT,
                    reason="the interpreter reads integers of any length")
@pytest.mark.parametrize("formula", ["X1 + t*{digits}", "X1 + t^{digits}"],
                         ids=["factor", "exponent"])
def test_integer_literal_past_the_digit_limit(formula):
    digits = "9" * (DIGIT_LIMIT + 1)
    source = MINI.replace("X1 + t + 0*X1^3", formula.format(digits=digits))
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(source)
    assert err.value.message == (
        f"integer literal of {DIGIT_LIMIT + 1} digits is longer than the "
        f"{DIGIT_LIMIT} this interpreter reads")
    column = source.splitlines()[7].index(digits) + 1
    assert (err.value.line, err.value.col) == (8, column)


def test_missing_clause():
    source = MINI.replace("  action: (X1 + t + 0*X1^3);\n", "")
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(source)
    assert "missing clause 'action'" in str(err.value)


def test_duplicate_clause():
    source = MINI.replace("  inverse: (-t);",
                          "  inverse: (-t);\n  inverse: (-t);")
    with pytest.raises(DuplicateClauseError) as err:
        lf.parse(source)
    assert "inverse" in str(err.value)


def test_arity_mismatch():
    source = MINI.replace("action: (X1 + t + 0*X1^3);", "action: (X1, t);")
    with pytest.raises(ArityMismatchError) as err:
        lf.parse(source)
    assert "expects 1 expression(s), got 2" in str(err.value)
    assert err.value.line > 0 and err.value.col > 0


def test_undeclared_symbol():
    source = MINI.replace("action: (X1 + t + 0*X1^3);", "action: (X1 + w);")
    with pytest.raises(UndeclaredSymbolError) as err:
        lf.parse(source)
    assert "'w'" in str(err.value)


@pytest.mark.parametrize("clause, formula", [
    ("action", "X1 + t/0"),
    ("action", "X1 + t*sin(1/(X1 - X1))"),
    ("action", "X1/(X1 - X1) + t"),
    ("action", "X1 + t + cos(0^-2)"),
    ("identity", "0^-1"),
    ("inverse", "-t + 1/(t - t)"),
    ("multiply", "lhs.t + rhs.t/0"),
    ("action", "X1 + t*0/0"),
    ("action", "X1 + t*(X1 - X1)/(X1 - X1)"),
])
def test_division_by_zero_is_rejected(clause, formula):
    # a negative power of a base that canonicalizes to 0, however deep,
    # fails at the clause's position, even where a zero factor beside it
    # would cancel the whole product
    lines = MINI.splitlines()
    line = next(i for i, text in enumerate(lines, start=1)
                if text.startswith(f"  {clause}:"))
    lines[line - 1] = f"  {clause}: ({formula});"
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse("\n".join(lines))
    assert err.value.message == f"clause '{clause}' divides by zero"
    assert (err.value.line, err.value.col) == (line, 3)


def test_identity_must_be_constant():
    source = MINI.replace("identity: (0);", "identity: (t);")
    with pytest.raises(UndeclaredSymbolError):
        lf.parse(source)


def test_qualified_names_only_in_multiply():
    source = MINI.replace("action: (X1 + t + 0*X1^3);", "action: (lhs.t);")
    with pytest.raises(UndeclaredSymbolError) as err:
        lf.parse(source)
    assert "lhs.t" in str(err.value)
    source = MINI.replace("multiply: (lhs.t + rhs.t);", "multiply: (t);")
    with pytest.raises(UndeclaredSymbolError):
        lf.parse(source)


def test_reserved_and_duplicate_names():
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(MINI.replace("params: t;", "params: sin;"))
    assert "reserved" in str(err.value)
    with pytest.raises(GroupSyntaxError) as err:
        lf.parse(MINI.replace("coords: X1;", "coords: t;"))
    assert "duplicate name 't'" in str(err.value)


def test_axioms_so2(so2_spec):
    report = lf.validate_axioms(so2_spec)
    assert report.ok
    assert report.samples == lf.expr.EXACT_POINTS
    verdicts = {c.axiom: c.verdict for c in report.checks}
    assert verdicts == {"identity_action": "Exact",
                        "inverse": "Exact",
                        "composition": "Exact",
                        "identity_element": "Exact"}
    assert all(c.max_residual is None for c in report.checks)


def test_axioms_affine_all_symbolic(affine_spec):
    report = lf.validate_axioms(affine_spec)
    assert report.ok
    assert all(c.verdict == "Exact" for c in report.checks)


def test_axioms_flag_wrong_inverse():
    source = MINI.replace("inverse: (-t);", "inverse: (t);")
    report = lf.validate_axioms(lf.parse(source))
    assert not report.ok
    failed = {c.axiom for c in report.checks if c.verdict == "Failed"}
    assert "inverse" in failed
    check = next(c for c in report.checks if c.axiom == "inverse")
    assert check.max_residual > 1e-9
    assert check.witness is not None


def _one_coordinate_group(params="g", identity="0", inverse="-g",
                          multiply="lhs.g + rhs.g", action="X1 + g"):
    return f"""
group pinned {{
  params: {params};
  coords: X1;
  identity: ({identity});
  inverse: ({inverse});
  multiply: ({multiply});
  action: ({action});
}}
"""


EXACT = ("Exact", None, None)


# A Failed law's witness is the float point of its largest residual, the
# gap between the sides over their sizes; the law's float evaluation draws
# g, its copy g_h and X1 at every point.
@pytest.mark.hash_order
@pytest.mark.parametrize("source, pinned", [
    # a constant identity other than the additive one breaks three laws
    (_one_coordinate_group(identity="1"),
     {"identity_action": ("Failed", 0.9337350271789067,
                          {"g": 1.7794859903007056,
                           "g_h": -0.04032133554720296,
                           "X1": 0.030646306120154954}),
      "inverse": ("Failed", 1.0,
                  {"g": -0.44892556723229005, "g_h": -0.03577050322661979,
                   "X1": -1.6902701558375575}),
      "composition": EXACT,
      "identity_element": ("Failed", 0.9782713962805777,
                           {"g": 0.022211222572831257,
                            "g_h": -0.4993555621337875,
                            "X1": -0.15029535051010967})}),
    (_one_coordinate_group(action="X1*(1 + g)"),
     {"identity_action": EXACT,
      "inverse": EXACT,
      "composition": ("Failed", 0.4124882361391451,
                      {"g": 1.6822199556766324, "g_h": -1.9213536605715853,
                       "X1": -1.7302428023201437}),
      "identity_element": EXACT}),
    (_one_coordinate_group(multiply="lhs.g + 2*rhs.g", inverse="-g/2"),
     {"identity_action": EXACT,
      "inverse": EXACT,
      "composition": ("Failed", 0.4359529394260368,
                      {"g": -0.27472899944728546, "g_h": -1.2197704516064274,
                       "X1": 0.08367074940276886}),
      "identity_element": ("Failed", 0.5,
                           {"g": -1.2472655376107111,
                            "g_h": 0.17727190160438244,
                            "X1": 1.9799039538246488})}),
    # the copies of g and g_h are named apart from the declared g_h
    (_one_coordinate_group(params="g, g_h", identity="0, 0",
                           inverse="-g, -g_h",
                           multiply="lhs.g + rhs.g, lhs.g_h + rhs.g_h",
                           action="X1*(1 + g) + g_h"),
     {"identity_action": EXACT,
      "inverse": EXACT,
      "composition": ("Failed", 0.5005175663056204,
                      {"g": 1.8276812589299363, "g_h": -0.32362949951907805,
                       "g_h_": 1.9274673846004644,
                       "g_h_h": -1.7066520805083818,
                       "X1": -0.8732253565011536}),
      "identity_element": EXACT}),
    (lf.bundled_source("so2"),
     {"identity_action": EXACT,
      "inverse": EXACT,
      "composition": EXACT,
      "identity_element": EXACT}),
], ids=["constant_identity", "scaled_action", "skew_multiply",
        "declared_h_name", "so2"])
def test_axiom_checks_are_pinned(source, pinned):
    report = lf.validate_axioms(lf.parse(source))
    assert [(c.axiom, c.verdict, c.max_residual, c.witness)
            for c in report.checks] == [(axiom, *pinned[axiom]) for axiom in
                                        ("identity_action", "inverse",
                                         "composition", "identity_element")]


SE2 = (pathlib.Path(__file__).resolve().parent.parent
       / "perfbench" / "groups" / "se2.grp")


@pytest.mark.hash_order
def test_zero_law_difference_is_not_sampled(monkeypatch):
    # SE(2)'s and so2's angles enter only through integer sums inside sin
    # and cos, so both the group laws and the check that phi vanishes on
    # the action are decided at exact points, with no float sampled
    batches = []
    batch = lf.expr._batch_values
    monkeypatch.setattr(lf.expr, "_batch_values", lambda *args:
                        batches.append(1) or batch(*args))
    for source in (SE2.read_text(), lf.bundled_source("so2")):
        spec = lf.parse(source)
        report = lf.validate_axioms(spec)
        assert [c.verdict for c in report.checks] == ["Exact"] * 4
        lie = lf.constraints(spec)
        assert {v for row in lie.on_action for v in row} == \
            {lf.Equivalence.EXACTLY_EQUAL}
    assert batches == []
