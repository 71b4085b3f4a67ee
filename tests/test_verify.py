"""Forward and converse Euler-Lagrange checks, diagnostics, and orbits."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import lagrforge as lf
from lagrforge import (Equivalence, Power, Rational, SecondOrderJetError,
                       ShapeMismatchError, Sym, canonicalize, verify)
from lagrforge.printing import prefix_expr
from test_solver import SE2_SOURCE

SHEAR = """
group shear {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + g*X2, X2);
}
"""


def test_strong_el_so2(so2_family):
    els = lf.strong_el(so2_family.lie, so2_family.lagrangians[0])
    assert [str(e) for e in els] == ["2*a2*X1' - 2*a2*X2'_g",
                                    "2*a2*X2' + 2*a2*X1'_g"]
    assert lf.strong_el(so2_family.lie, Rational(7)) == \
        [Rational(0), Rational(0)]


def test_strong_el_rejects_second_order(so2_lie):
    j1 = Sym(so2_lie.jets[0][0])
    with pytest.raises(SecondOrderJetError):
        lf.strong_el(so2_lie, j1 ** 2)


def test_forward_check(so2_family, affine_family):
    for family in (so2_family, affine_family):
        grid = lf.forward_check(family)
        assert len(grid) == family.lie.r
        assert all(v == Equivalence.PROVED_EQUAL for row in grid for v in row)


def test_el_system_is_linear_in_jets(so2_family, affine_family):
    for family in (so2_family, affine_family):
        lie = family.lie
        jets = lie.jet_list()
        for L in family.lagrangians:
            for e in lf.strong_el(lie, L):
                for J in jets:
                    second = lf.free_symbols(lf.differentiate(e, J))
                    assert not (second & set(jets))


def test_converse_match(so2_family):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    result = lf.converse_check(so2_family, {"a1": 0, "a2": 1})
    assert result.status == "Match"
    assert result.params == {"a1": Fraction(0), "a2": Fraction(1)}
    assert result.solved[lie.jets[0][0]] == -f2
    assert result.solved[lie.jets[1][0]] == f1
    assert result.unsolved == ()
    assert all(v != Equivalence.PROVED_UNEQUAL for _, v in result.comparisons)
    assert len(result.equations) == 2


def test_converse_underdetermined(so2_family):
    result = lf.converse_check(so2_family, {"a1": 1, "a2": 0})
    assert result.status == "Underdetermined"
    assert result.unsolved == ("X1'_g", "X2'_g")
    assert result.solved == {}
    # a generic mix is non-degenerate again
    assert lf.converse_check(so2_family, {"a1": 1, "a2": 1}).status == "Match"


def test_converse_mismatch_produces_witness(so2_family):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    j1, j2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    # flipping the sign of the squares sends the E-L solve to the
    # opposite rotation direction
    bad = canonicalize(-f1 * j2 - f1 ** 2 + f2 * j1 - f2 ** 2)
    tampered = dataclasses.replace(so2_family, lagrangians=[bad],
                                   free_params=(), members=[],
                                   multipliers={})
    result = lf.converse_check(tampered, {})
    assert result.status == "Mismatch"
    # the witness is the first equation that does not vanish on shell
    assert set(result.witness) == {"component", "field", "expression",
                                   "point", "magnitude"}
    assert (result.witness["component"], result.witness["field"]) == (1, 1)
    assert result.witness["magnitude"] > 1e-9
    assert result.solved == {} and result.comparisons == []


@pytest.fixture(scope="module", params=["so2 dx3", "affine1 dx1 g[-1,1]",
                                        "se2 dx1"])
def ladder_family(request):
    source, deg_x, deg_g = {
        "so2 dx3": (lf.bundled_source("so2"), 3, (0, 0)),
        "affine1 dx1 g[-1,1]": (lf.bundled_source("affine1"), 1, (-1, 1)),
        "se2 dx1": (SE2_SOURCE, 1, (0, 0)),
    }[request.param]
    lie = lf.constraints(lf.parse(source))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                deg_g=deg_g))


def test_specialised_el_matches_derivation(ladder_family):
    # the converse check substitutes parameter values into the family's
    # symbolic E-L system; deriving E-L from the specialised Lagrangians
    # must give the same equations, jet coefficients and jet-free parts
    family = ladder_family
    lie = family.lie
    jets = lie.jet_list()
    zero_jets = {J: Rational(0) for J in jets}

    def parts(e):
        return ([prefix_expr(e), prefix_expr(lf.substitute(e, zero_jets))]
                + [prefix_expr(lf.differentiate(e, J)) for J in jets])

    assignments = [verify.generic_params(family, seed) for seed in (1, 2)]
    assignments += [{p.name: 1} for p in family.free_params[:6]]
    for assignment in assignments:
        got = lf.converse_check(family, assignment).equations
        expected = [(k, alpha, e)
                    for k, L in enumerate(family.lagrangian_at(assignment),
                                          start=1)
                    for alpha, e in enumerate(lf.strong_el(lie, L), start=1)]
        assert [(k, a) for k, a, _ in got] == [(k, a) for k, a, _ in expected]
        for (_, _, e), (_, _, ref) in zip(got, expected):
            assert parts(e) == parts(ref), assignment


def _to_sympy(e, sp):
    """The expression as a SymPy expression, symbols by name."""
    if isinstance(e, Rational):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return sp.Symbol(e.info.name)
    if isinstance(e, Power):
        return sp.Pow(_to_sympy(e.base, sp), e.exponent)
    if isinstance(e, lf.Sum):
        return sp.Add(*(_to_sympy(t, sp) for t in e.terms))
    if isinstance(e, lf.Product):
        return sp.Mul(*(_to_sympy(f, sp) for f in e.factors))
    func = sp.sin if isinstance(e, lf.Sin) else sp.cos
    return func(_to_sympy(e.argument, sp))


def test_converse_rank_matches_sympy(ladder_family):
    # the rank at one rational point is the rank of the jet-coefficient
    # matrix as a matrix of functions, which SymPy computes over the field
    # of rational functions in the fields and group parameters
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    family = ladder_family
    lie = family.lie
    jets = lie.jet_list()
    domain = sp.QQ.frac_field(*(sp.Symbol(s.name)
                                for s in lie.fields + lie.spec.params))
    assignments = [verify.generic_params(family, lf.DEFAULT_SEED)]
    assignments += [{p.name: 1} for p in family.free_params[:4]]
    for assignment in assignments:
        result = lf.converse_check(family, assignment)
        matrix = DomainMatrix(
            [[domain.from_sympy(_to_sympy(lf.differentiate(e, J), sp))
              for J in jets] for _, _, e in result.equations],
            (len(result.equations), len(jets)), domain)
        assert matrix.rank() == len(jets) - len(result.unsolved), assignment


def test_degeneracy_scan(so2_family):
    report = lf.degeneracy_scan(so2_family)
    assert [e.label for e in report.entries] == \
        ["a1 alone", "a2 alone", "generic combination"]
    assert [e.status for e in report.entries] == \
        ["Underdetermined", "Match", "Match"]
    assert report.degenerate == ["a1 alone"]
    generic = report.entries[-1].assignment
    assert generic == {"a1": Fraction(3), "a2": Fraction(2, 7)}


def test_degeneracy_scan_caps_parameters(affine_family):
    with pytest.raises(ValueError) as err:
        lf.degeneracy_scan(affine_family)
    assert "limited to 4 free parameters" in str(err.value)
    assert "40" in str(err.value)


def test_kinetic_identity(so2_lie, so2_family):
    kin = lf.kinetic_identity_check(so2_lie, so2_family)
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    assert kin.verdict == Equivalence.PROVED_EQUAL
    assert kin.momentum_onshell == f1 ** 2 + f2 ** 2
    assert kin.energy_onshell == f1 ** 2 + f2 ** 2
    assert str(kin.special_lagrangian) == \
        "1/2*X1'*X2'_g - 1/2*X1'^2 - 1/2*X2'*X1'_g - 1/2*X2'^2"
    assert kin.family_match == Equivalence.PROVED_EQUAL


def test_kinetic_identity_is_rotation_specific():
    lie = lf.constraints(lf.parse(SHEAR))
    kin = lf.kinetic_identity_check(lie)
    assert kin.verdict == Equivalence.PROVED_UNEQUAL
    assert kin.family_match is None


def test_kinetic_identity_shape(affine_lie):
    with pytest.raises(ShapeMismatchError):
        lf.kinetic_identity_check(affine_lie)


def test_orbit_full_turn(so2_lie):
    orbit = lf.numeric_orbit_check(so2_lie, (1.0, 0.0), 2 * math.pi)
    assert orbit.max_deviation <= 1e-6
    assert orbit.steps == 6284
    assert orbit.final_state == pytest.approx((1.0, 0.0), abs=1e-9)


def test_orbit_quarter_turn_and_edge_cases(so2_lie):
    orbit = lf.numeric_orbit_check(so2_lie, (1.0, 0.0), math.pi / 2)
    assert orbit.final_state == pytest.approx((0.0, 1.0), abs=1e-9)
    assert orbit.final_exact == pytest.approx((0.0, 1.0), abs=1e-12)
    # the origin is a fixed point; a zero-length orbit takes no steps
    assert lf.numeric_orbit_check(so2_lie, (0.0, 0.0),
                                  2 * math.pi).max_deviation == 0.0
    zero = lf.numeric_orbit_check(so2_lie, (1.0, 0.0), 0.0)
    assert zero.steps == 0 and zero.max_deviation == 0.0
    # the radius is arbitrary: the comparison tracks the exact action
    assert lf.numeric_orbit_check(so2_lie, (2.0, 0.0),
                                  1.0).max_deviation <= 1e-6


def test_orbit_rejects_bad_input(so2_lie, affine_lie):
    with pytest.raises(ValueError):
        lf.numeric_orbit_check(so2_lie, (1.0,), 1.0)
    with pytest.raises(ShapeMismatchError):
        lf.numeric_orbit_check(affine_lie, (1.0, 0.0), 1.0)
    for step in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="--step"):
            lf.numeric_orbit_check(so2_lie, (1.0, 0.0), 1.0, step=step)
    for g_end in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="--g-end"):
            lf.numeric_orbit_check(so2_lie, (1.0, 0.0), g_end)
    # too long an orbit is refused before a step is taken
    limit = verify.MAX_ORBIT_STEPS
    for g_end, step in ((1e300, 1e-3), (1.0, 1e-300),
                        ((limit + 1) * 1e-3, 1e-3)):
        with pytest.raises(ValueError, match="--g-end .* and --step"):
            lf.numeric_orbit_check(so2_lie, (1.0, 0.0), g_end, step=step)


SCALE = """
group scale {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g), X2*(1 + g));
}
"""


def reference_orbit(lie, x0, g_end, step):
    """The orbit integration walking the trees with eval_numeric."""
    spec = lie.spec
    p = spec.params[0]
    rhs = [lie.onshell[lie.jets[a][0]] for a in range(lie.n)]

    def f(g, x):
        env = {p.name: g}
        env.update((fld.name, v) for fld, v in zip(lie.fields, x))
        return [lf.eval_numeric(e, env) for e in rhs]

    def exact(g):
        env = {c.name: v for c, v in zip(spec.coords, x0)}
        env[p.name] = g
        return [lf.eval_numeric(a, env) for a in spec.action]

    def dist(a, b):
        return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))

    g = lf.eval_numeric(spec.identity[0], {})
    total = g_end - g
    n_full = int(abs(total) // step)
    sizes = [step] * n_full
    rem = abs(total) - n_full * step
    if rem > step * 1e-9:
        sizes.append(rem)
    sign = 1.0 if total >= 0 else -1.0
    x = list(x0)
    deviation = dist(x, exact(g))
    for h in sizes:
        h = h * sign
        k1 = f(g, x)
        k2 = f(g + h / 2, [xi + h / 2 * ki for xi, ki in zip(x, k1)])
        k3 = f(g + h / 2, [xi + h / 2 * ki for xi, ki in zip(x, k2)])
        k4 = f(g + h, [xi + h * ki for xi, ki in zip(x, k3)])
        x = [xi + h / 6 * (a + 2 * b + 2 * c + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        g = g + h
        deviation = max(deviation, dist(x, exact(g)))
    return verify.OrbitResult(max_deviation=deviation, steps=len(sizes),
                              final_state=tuple(x),
                              final_exact=tuple(exact(g)))


def _bits(orbit):
    return (orbit.max_deviation.hex(), orbit.steps,
            [v.hex() for v in orbit.final_state],
            [v.hex() for v in orbit.final_exact])


@pytest.mark.parametrize("x0,g_end,step", [
    ((1.0, 0.0), 2 * math.pi, 1e-3),
    ((0.3, -1.7), -2.5, 7e-3),
])
def test_orbit_matches_tree_walking_reference_so2(so2_lie, x0, g_end, step):
    assert _bits(lf.numeric_orbit_check(so2_lie, x0, g_end, step=step)) == \
        _bits(reference_orbit(so2_lie, x0, g_end, step))


@pytest.mark.parametrize("g_end", [1.5, -0.5])
def test_orbit_matches_tree_walking_reference_negative_power(g_end):
    # the right-hand sides carry (1 + g)^-1, so the guard is compiled in
    lie = lf.constraints(lf.parse(SCALE))
    assert any(isinstance(f, Power) and f.exponent < 0
               for e in lie.onshell.values() for t in e.terms
               for f in getattr(t, "factors", ()))
    orbit = lf.numeric_orbit_check(lie, (1.0, -2.0), g_end, step=1e-2)
    assert orbit.max_deviation <= 1e-12
    assert _bits(orbit) == _bits(reference_orbit(lie, (1.0, -2.0), g_end,
                                                 1e-2))


def test_orbit_through_a_singularity_is_an_input_error():
    # the right-hand sides have a pole at g = -1
    lie = lf.constraints(lf.parse(SCALE))
    with pytest.raises(ValueError, match=r"^--g-end -2.0: the orbit cannot "
                       r"be evaluated beyond g = -0.99\d*: denominator"):
        lf.numeric_orbit_check(lie, (1.0, -2.0), -2.0, step=1e-2)


def test_build_report_so2(so2_family):
    report = lf.build_report(so2_family, {"a1": 0, "a2": 1}, numeric=True,
                             x0=(1.0, 0.0), g_end=2 * math.pi)
    assert report.ok
    assert report.converse.status == "Match"
    assert report.orbit.max_deviation <= 1e-6
    assert report.kinetic.family_match == Equivalence.PROVED_EQUAL
    assert report.degeneracy.degenerate == ["a1 alone"]
    assert any("phi[a][j]" in note for note in report.notes)

    degenerate = lf.build_report(so2_family, {"a2": 0})
    assert not degenerate.ok
    assert degenerate.converse.status == "Underdetermined"


def test_build_report_needs_orbit_window(so2_family):
    with pytest.raises(ValueError):
        lf.build_report(so2_family, {"a2": 1}, numeric=True)


def test_build_report_affine(affine_family):
    rng = random.Random(lf.DEFAULT_SEED)
    params = {p.name: Fraction(rng.randint(1, 9), rng.randint(1, 9))
              for p in affine_family.free_params}
    report = lf.build_report(affine_family, params, numeric=True)
    assert report.ok
    assert report.orbit is None and report.kinetic is None
    assert report.degeneracy is None
    notes = " | ".join(report.notes)
    assert "degeneracy scan skipped" in notes
    assert "kinetic identity check skipped" in notes
    assert "orbit integration skipped" in notes
