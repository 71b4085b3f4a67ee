"""Group DSL parsing, axiom validation, and rendering."""

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
    assert report.samples == 100
    verdicts = {c.axiom: c.verdict for c in report.checks}
    assert verdicts == {"identity_action": "Symbolic",
                        "inverse": "Symbolic",
                        "composition": "Numeric",
                        "identity_element": "Symbolic"}
    by_name = {c.axiom: c for c in report.checks}
    assert by_name["composition"].max_residual <= 1e-9


def test_axioms_affine_all_symbolic(affine_spec):
    report = lf.validate_axioms(affine_spec)
    assert report.ok
    assert all(c.verdict == "Symbolic" for c in report.checks)


def test_axioms_flag_wrong_inverse():
    source = MINI.replace("inverse: (-t);", "inverse: (t);")
    report = lf.validate_axioms(lf.parse(source))
    assert not report.ok
    failed = {c.axiom for c in report.checks if c.verdict == "Failed"}
    assert "inverse" in failed
    check = next(c for c in report.checks if c.axiom == "inverse")
    assert check.max_residual > 1e-9
    assert check.witness is not None
