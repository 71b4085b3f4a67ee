"""Derivation of S, u, and the Lie equation constraints."""

import re

import pytest

import lagrforge as lf
from lagrforge import (ConventionViolationError, Equivalence,
                       ResidualCoordinatesError, Power, Rational, Role, Sym,
                       canonicalize)
from conftest import _to_sympy, rebuilt
from test_solver import SE2_SOURCE

SCALE = """
group scale {
  params: g;
  coords: X1;
  identity: (1);
  inverse: (1/g);
  multiply: (lhs.g * rhs.g);
  action: (g*X1);
}
"""

# A shear whose second coordinate moves by a square of the first's.
SHEAR_SQUARE = """
group shear_square {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + g, X2 + (X1 + g)^2 - X1^2);
}
"""

TRIVIAL = """
group trivial {
  params: t;
  coords: X1;
  identity: (0);
  inverse: (-t);
  multiply: (lhs.t + rhs.t);
  action: (X1);
}
"""


def test_so2_infinitesimal_coefficients(so2_spec, so2_lie):
    x1, x2 = Sym(so2_spec.coords[0]), Sym(so2_spec.coords[1])
    assert so2_lie.S == [[-x2], [x1]]
    assert so2_lie.u == [[Rational(1)]]


def test_so2_fields_and_jets(so2_lie):
    assert [f.name for f in so2_lie.fields] == ["X1'", "X2'"]
    assert so2_lie.fields[0].role == Role.FIELD_VARIABLE
    assert so2_lie.fields[0].index == (1,)
    assert [[j.name for j in row] for row in so2_lie.jets] == \
        [["X1'_g"], ["X2'_g"]]
    assert so2_lie.jets[1][0].index == (2, 1)
    assert so2_lie.jets[0][0].role == Role.JET_VARIABLE


def test_so2_constraints(so2_lie):
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    j1, j2 = Sym(so2_lie.jets[0][0]), Sym(so2_lie.jets[1][0])
    assert so2_lie.phi[0][0] == j1 + f2
    assert so2_lie.phi[1][0] == j2 - f1
    assert str(so2_lie.phi[0][0]) == "X2' + X1'_g"
    assert str(so2_lie.phi[1][0]) == "-X1' + X2'_g"
    assert so2_lie.onshell[so2_lie.jets[0][0]] == -f2
    assert so2_lie.onshell[so2_lie.jets[1][0]] == f1


def test_so2_constraints_vanish_on_action(so2_lie):
    # the angle g enters only inside sin and cos, so every point is exact
    assert all(v == Equivalence.EXACTLY_EQUAL
               for row in so2_lie.on_action for v in row)
    assert any("phi[a][j]" in note for note in so2_lie.notes)


def test_affine_auxiliary_functions(affine_spec, affine_lie):
    g1, g2 = (Sym(p) for p in affine_spec.params)
    assert affine_lie.u == [[canonicalize(Power(g1, -1)), Rational(0)],
                           [-g2 / g1, Rational(1)]]
    identity = {p: e for p, e in zip(affine_spec.params,
                                     affine_spec.identity)}
    at_identity = [[lf.substitute(entry, identity) for entry in row]
                   for row in affine_lie.u]
    assert at_identity == [[Rational(1), Rational(0)],
                          [Rational(0), Rational(1)]]


def test_affine_constraints(affine_spec, affine_lie):
    g1, g2 = (Sym(p) for p in affine_spec.params)
    x1 = Sym(affine_spec.coords[0])
    f1 = Sym(affine_lie.fields[0])
    j = affine_lie.jets
    assert affine_lie.S == [[x1, Rational(1)], [Rational(0), Rational(0)]]
    assert affine_lie.phi[0][0] == Sym(j[0][0]) - f1 / g1 + g2 / g1
    assert affine_lie.phi[0][1] == Sym(j[0][1]) - Rational(1)
    assert affine_lie.phi[1][0] == Sym(j[1][0])
    assert affine_lie.phi[1][1] == Sym(j[1][1])
    assert affine_lie.onshell[j[0][0]] == f1 / g1 - g2 / g1
    assert affine_lie.onshell[j[0][1]] == Rational(1)
    assert affine_lie.onshell[j[1][0]] == Rational(0)
    assert affine_lie.onshell[j[1][1]] == Rational(0)
    assert [j_.name for j_ in affine_lie.jet_list()] == \
        ["X1'_g1", "X1'_g2", "X2'_g1", "X2'_g2"]


def test_affine_constraints_vanish_on_action(affine_lie):
    assert all(v == Equivalence.EXACTLY_EQUAL
               for row in affine_lie.on_action for v in row)


def test_scale_group():
    lie = lf.constraints(lf.parse(SCALE))
    g = Sym(lie.spec.params[0])
    f1 = Sym(lie.fields[0])
    assert lie.S == [[Sym(lie.spec.coords[0])]]
    assert lie.u == [[canonicalize(Power(g, -1))]]
    assert lie.onshell[lie.jets[0][0]] == f1 / g
    assert lie.on_action[0][0] == Equivalence.EXACTLY_EQUAL


def test_trivial_group():
    lie = lf.constraints(lf.parse(TRIVIAL))
    assert lie.S == [[Rational(0)]]
    assert lie.phi[0][0] == Sym(lie.jets[0][0])
    assert lie.onshell[lie.jets[0][0]] == Rational(0)


def test_residual_coordinates_error():
    spec = lf.parse(SCALE)
    g = Sym(spec.params[0])
    x1 = Sym(spec.coords[0])
    broken = rebuilt(spec, inverse=(canonicalize(1 / g + x1),))
    with pytest.raises(ResidualCoordinatesError) as err:
        lf.auxiliary_functions(broken)
    assert "X1" in str(err.value)


def test_convention_violation():
    source = TRIVIAL.replace("multiply: (lhs.t + rhs.t);",
                             "multiply: (2*lhs.t + rhs.t);")
    source = source.replace("action: (X1);", "action: (X1 + t);")
    with pytest.raises(ConventionViolationError,
                       match="does not vanish on the group action; the "
                             "group data is inconsistent"):
        lf.constraints(lf.parse(source))


def _items(source, clause):
    """The items of the group text's `clause`, a tuple's parentheses
    dropped."""
    text = re.search(rf"\b{clause}:\s*(.*?);", source, re.S).group(1).strip()
    if text.startswith("("):
        text = text[1:-1]
    return [item.strip() for item in re.split(r",(?![^(]*\))", text)]


def sympy_onshell_values(source, sp) -> tuple:
    """(params, fields, xi) in SymPy from the group text alone: xi[a][s] =
    d f^a / d g_s at X = f(X', g^-1), unsimplified."""
    params, coords = ([sp.Symbol(name) for name in _items(source, clause)]
                      for clause in ("params", "coords"))
    symbols = {s.name: s for s in params + coords}
    action, inverse = ([sp.sympify(e.replace("^", "**"), locals=symbols)
                        for e in _items(source, clause)]
                       for clause in ("action", "inverse"))
    fields = [sp.Symbol(f"{c.name}'") for c in coords]
    back = dict(zip(coords, fields)) | dict(zip(params, inverse))
    at_fields = {c: f.xreplace(back) for c, f in zip(coords, action)}
    return params, fields, [[sp.diff(f, g).xreplace(at_fields)
                             for g in params] for f in action]


@pytest.mark.parametrize("source", [lf.bundled_source("so2"),
                                    lf.bundled_source("affine1"),
                                    SE2_SOURCE, SHEAR_SQUARE],
                         ids=["so2", "affine1", "se2", "shear_square"])
def test_onshell_values_match_sympy(source):
    # xi^a_s = d f^a / d g_s at X = f(X', g^-1), built in SymPy from the
    # group text alone: the jet values the converse check prints as solved
    sp = pytest.importorskip("sympy")
    _, _, xi = sympy_onshell_values(source, sp)
    lie = lf.constraints(lf.parse(source))
    for a, row in enumerate(xi):
        for s, want in enumerate(row):
            got = _to_sympy(lie.onshell[lie.jets[a][s]], sp)
            gap = sp.expand(want - got)
            if gap.has(sp.sin, sp.cos):
                gap = sp.trigsimp(gap)
            assert sp.cancel(gap) == 0, (a, s)
