"""Forward and converse Euler-Lagrange checks, diagnostics, and orbits."""

import math
import random
import re
from fractions import Fraction

import pytest

import lagrforge as lf
from lagrforge import (Equivalence, Power, Rational, SecondOrderJetError,
                       ShapeMismatchError, Sym, canonicalize, verify)
from lagrforge.expr import NearSingularEvaluationError, sample_expr
from lagrforge.printing import prefix_expr
from lagrforge.solver import rref
from conftest import _to_sympy, field_values, rebuilt
from orbit_bits import (ORBIT_BITS, ORBIT_IDS, SCALE, SCALE3, orbit_bits,
                        bits as _bits)
from test_solver import (SCALE1_SOURCE, SCALE3_SOURCE, SE2_SOURCE,
                         _tree_euler_lagrange)

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


def test_strong_el_rejects_jets_beyond_a_lone_factor(so2_lie):
    # two jets in one term, and a jet inside a sine or an inverse sum, make
    # dL/djet depend on a jet
    f1 = Sym(so2_lie.fields[0])
    j1, j2 = Sym(so2_lie.jets[0][0]), Sym(so2_lie.jets[1][0])
    for L in (f1 * j1 * j2, f1 * lf.Sin(j1), f1 / (1 + j1)):
        with pytest.raises(SecondOrderJetError,
                           match="dL/djet depends on a jet variable"):
            lf.strong_el(so2_lie, L)


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
    # a family with no free parameters whose one Lagrangian is `bad`; its
    # lazily derived E-L expressions are set in place of being derived
    tampered = rebuilt(so2_family, free_params=(), blocks=[],
                                   block_multipliers=[], block_lagrangians=[])
    tampered.el = lf.strong_el(lie, bad)
    result = lf.converse_check(tampered, {})
    assert result.status == "Mismatch"
    # the witness is the first equation that does not vanish on shell
    assert set(result.witness) == {"component", "field", "expression",
                                   "point", "magnitude"}
    assert (result.witness["component"], result.witness["field"]) == (1, 1)
    assert result.witness["magnitude"] > 1e-9
    assert result.solved == {} and result.comparisons == []


def test_checks_fail_closed_and_grade_by_the_weakest_verdict(so2_family,
                                                             monkeypatch):
    # only ProvedEqual, ExactlyEqual and NumericallyEqual say the sides
    # agree: an aborted sampling run (Undecided) fails the report and is a
    # Mismatch in converse (a), and the solved jets carry the weakest
    # equal verdict seen
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    j1, j2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    tampered = rebuilt(so2_family, free_params=(), blocks=[],
                       block_multipliers=[], block_lagrangians=[])
    tampered.el = lf.strong_el(
        lie, canonicalize(-f1 * j2 - f1 ** 2 + f2 * j1 - f2 ** 2))
    assert Rational(0) not in tampered.residuals
    E = Equivalence
    for verdicts, status, grade in (
            ([E.EXACTLY_EQUAL, E.NUMERICALLY_EQUAL], "Match",
             E.NUMERICALLY_EQUAL),
            ([E.PROVED_EQUAL, E.EXACTLY_EQUAL], "Match", E.EXACTLY_EQUAL),
            ([E.EXACTLY_EQUAL, E.UNDECIDED], "Mismatch", None)):
        answers = iter(verdicts)
        monkeypatch.setattr(verify, "equals",
                            lambda *args, **kwargs: next(answers))
        result = lf.converse_check(tampered, {})
        assert result.status == status
        assert {v for _, v in result.comparisons} == \
            ({grade} if grade else set())
        if grade is None:
            assert (result.witness["component"],
                    result.witness["field"]) == (1, 2)
    match = lf.converse_check(so2_family, {"a1": 0, "a2": 1})
    for row, ok in (([E.EXACTLY_EQUAL, E.NUMERICALLY_EQUAL], True),
                    ([E.PROVED_EQUAL, E.UNDECIDED], False),
                    ([E.PROVED_UNEQUAL, E.PROVED_EQUAL], False)):
        report = verify.VerificationReport(lie=lie, params={},
                                           forward=[row], converse=match)
        assert report.ok is ok, row


FAMILIES = {
    "so2 dx3": (lf.bundled_source("so2"), 3, (0, 0)),
    "affine1 dx1 g[-1,1]": (lf.bundled_source("affine1"), 1, (-1, 1)),
    "se2 dx1": (SE2_SOURCE, 1, (0, 0)),
    # SE(2)'s first Match rung: its jet-free E-L monomials hold sin and cos
    "se2 dx1 g[0,1]": (SE2_SOURCE, 1, (0, 1)),
    "so2 dx4": (lf.bundled_source("so2"), 4, (0, 0)),
    "se2 dx2": (SE2_SOURCE, 2, (0, 0)),
    "scale3 dx1 g[-1,0]": (SCALE3_SOURCE, 1, (-1, 0)),
}


def _solved(name, families=FAMILIES):
    source, deg_x, deg_g = families[name]
    lie = lf.constraints(lf.parse(source))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                deg_g=deg_g))


@pytest.fixture(scope="module", params=["so2 dx3", "affine1 dx1 g[-1,1]",
                                        "se2 dx1"])
def ladder_family(request):
    return _solved(request.param)


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


def _substituted_converse(family, params, seed):
    """The converse check substituting into every component's strong E-L
    expressions, equation by equation and jet cell by jet cell, as the
    reference for the split one; with its jet matrix and the RREF."""
    lie = family.lie
    table = {p: Rational(v) for p, v in family.param_values(params).items()}
    equations = [(k, alpha, lf.substitute(e, table))
                 for k, row in enumerate(family.strong_el, start=1)
                 for alpha, e in enumerate(row, start=1)]
    # the equal verdicts, strongest first: any other is a Mismatch, and
    # the grade is the weakest seen
    order = [Equivalence.PROVED_EQUAL, Equivalence.EXACTLY_EQUAL,
             Equivalence.NUMERICALLY_EQUAL]
    grade, witness = Equivalence.PROVED_EQUAL, None
    for k, alpha, e in equations:
        onshell = lf.substitute(e, lie.onshell)
        verdict = lf.equals(onshell, 0, seed=seed)
        if verdict not in order:
            outcome = sample_expr(onshell, seed=seed)
            witness = {"component": k, "field": alpha,
                       "expression": lf.format_expr(onshell),
                       "point": outcome.witness, "magnitude": outcome.max_abs}
            break
        if order.index(verdict) > order.index(grade):
            grade = verdict
    rng = random.Random(seed)
    point = {s: Rational(rng.randint(1, 2 ** 31))
             for s in lie.fields + lie.spec.params}
    jets = lie.jet_list()
    matrix = [[lf.substitute(lf.differentiate(e, J), point).value
               for J in jets] for _, _, e in equations]
    reduced, pivots = rref(matrix)
    free = [c for c in range(len(jets)) if c not in pivots]
    determined = [] if witness else [
        jets[c] for row, c in zip(reduced, pivots)
        if not any(f in row for f in free)]
    unsolved = tuple(jets[c].name for c in free)
    result = verify.ConverseResult(
        params={p.name: v for p, v in family.param_values(params).items()},
        equations=lambda: equations,
        solved={J: lie.onshell[J] for J in determined}, unsolved=unsolved,
        comparisons=[(J.name, grade) for J in determined],
        status="Mismatch" if witness else
        "Underdetermined" if unsolved else "Match", witness=witness)
    return result, matrix, (reduced, pivots)


def _assignments(family):
    """Generic values at two seeds, each of the first six directions alone,
    and, with two or more components, values for component 2's run only."""
    out = [verify.generic_params(family, seed) for seed in (1, 2)]
    out += [{p.name: 1} for p in family.free_params[:6]]
    if family.lie.r > 1:
        generic = verify.generic_params(family, 3)
        out.append({p.name: generic[p.name] for p in family.runs[1]})
    return out


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def any_family(request):
    return _solved(request.param)


@pytest.mark.hash_order
def test_strong_el_matches_tree_reference(any_family):
    # strong_el derives every field's expression in one walk over L's
    # monomials; the reference builds each from whole derivatives of L
    # through one Sum/Product tree
    family = any_family
    lie, L = family.lie, family.lagrangians[0]
    assert family.el == lf.strong_el(lie, L) == [
        _tree_euler_lagrange(lie, L, alpha) for alpha in range(1, lie.n + 1)]


@pytest.mark.hash_order
def test_strong_el_takes_the_chain_rule_through_inverse_sums():
    # no FAMILIES rung holds an inverse sum (scale3's inverse is a plain
    # power of s); here the jet's rest and a jet-free term hold (1 + g)^-1
    # and inverse sums of the field, which the chain rule differentiates
    lie = lf.constraints(lf.parse(SCALE1_SOURCE))
    X, g, J = Sym(lie.fields[0]), Sym(lie.spec.params[0]), Sym(lie.jets[0][0])
    L = canonicalize(J * X / (1 + g) + J / (1 + X) + X ** 2 / (1 + g * X)
                     + lie.phi[0][0] * X)
    assert any(isinstance(atom, lf.Sum)
               for _, pairs in lf.monomials(L) for atom, _ in pairs)
    assert lf.strong_el(lie, L) == [_tree_euler_lagrange(lie, L, 1)]


@pytest.mark.hash_order
def test_split_checks_match_substitution(any_family):
    # the checks read component 1's E-L split by free parameter; the
    # reference substitutes into every component's, equation by equation
    family = any_family
    lie = family.lie
    assert verify.forward_check(family) == [
        [lf.equals(lf.substitute(e, lie.onshell), 0) for e in row]
        for row in family.strong_el]
    for seed in (lf.DEFAULT_SEED, 7):
        for assignment in _assignments(family):
            got = lf.converse_check(family, assignment, seed=seed)
            want, matrix, reduction = _substituted_converse(family,
                                                            assignment, seed)
            assert field_values(got) == field_values(want), \
                assignment
            assert [(k, a, prefix_expr(e)) for k, a, e in got.equations] == \
                [(k, a, prefix_expr(e)) for k, a, e in want.equations]
            split = verify._jet_matrix(
                family,
                verify._weights(family, family.param_values(assignment)),
                seed)
            assert split == matrix
            assert rref(split) == reduction


@pytest.mark.hash_order
def test_split_checks_match_substitution_off_the_family(so2_family):
    # a Lagrangian with no free parameter, as in the mismatch test: its
    # monomials are split under no parameter, with the opposite rotation
    # (Mismatch) and with so2's own (Match)
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    j1, j2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    statuses = []
    for L in (canonicalize(-f1 * j2 - f1 ** 2 + f2 * j1 - f2 ** 2),
              canonicalize(f1 * j2 - f1 ** 2 - f2 * j1 - f2 ** 2)):
        tampered = rebuilt(so2_family, free_params=(), blocks=[],
                                       block_multipliers=[],
                                       block_lagrangians=[])
        # the reference reads `strong_el`, whose first row is `el`
        tampered.el = lf.strong_el(lie, L)
        got = lf.converse_check(tampered, {})
        want, _, _ = _substituted_converse(tampered, {}, lf.DEFAULT_SEED)
        assert field_values(got) == field_values(want)
        statuses.append(got.status)
    assert statuses == ["Mismatch", "Match"]


def test_converse_check_needs_laurent_jet_coefficients(so2_family):
    # the jet matrix values each jet coefficient as the Laurent monomials
    # in the fields and group parameters that `ansatz_from_basis` builds;
    # a coefficient holding a sine, or an inverse sum, is refused by name
    lie = so2_family.lie
    f1 = Sym(lie.fields[0])
    g, j2 = Sym(lie.spec.params[0]), Sym(lie.jets[1][0])
    for L, atom in ((canonicalize(lf.Sin(g) * f1 * j2), "sin(g)"),
                    (canonicalize(f1 * j2 / (1 + g)), "1 + g")):
        tampered = rebuilt(so2_family, free_params=(), blocks=[],
                           block_multipliers=[], block_lagrangians=[])
        first = tampered.el = lf.strong_el(lie, L)
        assert any(atom in lf.format_expr(e) for e in first)
        with pytest.raises(ValueError,
                           match=rf"holds {re.escape(atom)}; .*Laurent "
                                 "polynomials"):
            lf.converse_check(tampered, {})


def test_forward_check_decides_component_one_for_every_component(
        affine_family, monkeypatch):
    # component k's on-shell forms are component 1's over its own run of
    # free parameters: tampered with a form that does not vanish, the r
    # rows still agree, each the verdicts on the forms renamed into k
    family = affine_family              # affine1 dx1 g[-1,0]
    lie = family.lie
    assert lie.r == 2
    tampered = rebuilt(family)
    first = family.el
    bad = tampered.el = [
        first[0] + Sym(family.runs[0][0]) * Sym(lie.fields[0]), *first[1:]]
    forms = [lf.substitute(e, lie.onshell) for e in bad]
    assert forms[0] != Rational(0)
    calls = []

    def counted_equals(*args, **kwargs):
        calls.append(args)
        return lf.equals(*args, **kwargs)

    monkeypatch.setattr(verify, "equals", counted_equals)
    grid = verify.forward_check(tampered)
    assert len(calls) == lie.n
    assert len(grid) == lie.r and grid[0] is not grid[1]
    for run, row in zip(family.runs, grid):
        renamed = {p: Sym(q) for p, q in zip(family.runs[0], run)}
        assert row == [lf.equals(lf.substitute(F, renamed), 0)
                       for F in forms]
    assert grid[0][0] == Equivalence.PROVED_UNEQUAL


def test_checks_derive_component_one_once(monkeypatch):
    # the family's strong E-L is derived once, however many assignments
    # the degeneracy scan tries; the jet matrix is read off it with no
    # differentiate, and the on-shell values are substituted into
    # component 1's n expressions and the kinetic identity's two, never
    # again per check
    family = _solved("so2 dx3")
    lie = family.lie
    calls = {"differentiate": 0, "strong_el": 0, "onshell": 0}

    def counted_differentiate(*args, **kwargs):
        calls["differentiate"] += 1
        return lf.differentiate(*args, **kwargs)

    def counted_strong_el(*args, **kwargs):
        calls["strong_el"] += 1
        return lf.strong_el(*args, **kwargs)

    def counted_substitute(e, mapping):
        calls["onshell"] += mapping is lie.onshell
        return lf.substitute(e, mapping)

    monkeypatch.setattr(verify, "differentiate", counted_differentiate)
    monkeypatch.setattr(lf.solver, "strong_el", counted_strong_el)
    monkeypatch.setattr(lf.solver, "substitute", counted_substitute)
    monkeypatch.setattr(verify, "substitute", counted_substitute)
    report = lf.build_report(family, {"a2": 1})
    assert len(report.degeneracy.entries) == 5
    assert calls == {"differentiate": 0, "strong_el": 1,
                     "onshell": lie.n + 2}


def test_checks_build_component_one_alone():
    # affine1 has two components: the checks read component 1's E-L from
    # L_1 alone, and never build L_2 or rename E-L into component 2
    family = _solved("affine1 dx1 g[-1,1]")
    assert family.lie.r == 2
    lf.forward_check(family)
    lf.converse_check(family, verify.generic_params(family, 1))
    assert {"lagrangians", "strong_el"}.isdisjoint(vars(family))
    # what they read is kept with the family, and component 1's row of
    # every component's E-L is that same list, not a second derivation
    el = family.el
    assert {"el", "residuals"} <= set(vars(family))
    assert family.strong_el[0] is el
    assert family.strong_el[0] == \
        lf.strong_el(family.lie, family.lagrangians[0])


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


ORACLE_RUNGS = {"so2 dx3": FAMILIES["so2 dx3"],
                "affine1 dx1 g[-1,0]": (lf.bundled_source("affine1"), 1,
                                        (-1, 0)),
                "se2 dx1": FAMILIES["se2 dx1"]}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNGS))
def test_equations_at_values_match_sympy_euler_equations(name):
    # the converse check's equations are component 1's E-L expressions at
    # each component's values; SymPy derives the E-L equations of each
    # Lagrangian at those values on its own, the fields functions of the
    # group parameters and the jets their derivatives
    sp = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations

    family = _solved(name, ORACLE_RUNGS)
    lie = family.lie
    params = verify.generic_params(family, 1)
    gs = [sp.Symbol(p.name) for p in lie.spec.params]
    funcs = [sp.Function(f.name)(*gs) for f in lie.fields]
    as_functions = {sp.Symbol(f.name): F for f, F in zip(lie.fields, funcs)}
    as_functions |= {sp.Symbol(J.name): sp.diff(F, g)
                     for row, F in zip(lie.jets, funcs)
                     for J, g in zip(row, gs)}
    # an equation whose left side is 0 comes back as `true`
    expected = [[sp.S.Zero if eq is sp.true else eq.lhs
                 for eq in euler_equations(
                     _to_sympy(L, sp).xreplace(as_functions), funcs, gs)]
                for L in family.lagrangian_at(params)]
    equations = lf.converse_check(family, params).equations
    assert [(k, a) for k, a, _ in equations] == [
        (k, a) for k in range(1, lie.r + 1) for a in range(1, lie.n + 1)]
    for k, alpha, e in equations:
        got = _to_sympy(e, sp).xreplace(as_functions)
        assert sp.expand(got - expected[k - 1][alpha - 1]) == 0, (k, alpha)


@pytest.mark.parametrize("name", ["so2 dx3", "affine1 dx1 g[-1,1]",
                                  "se2 dx1 g[0,1]"])
def test_family_at_values_is_substitution(name, monkeypatch):
    # lagrangian_at and multipliers_at put the values in by walking the
    # monomials each free parameter leads; the reference substitutes them
    family = _solved(name)
    assignments = [verify.generic_params(family, seed) for seed in (1, 2, 3)]

    def refuse(*args):
        raise AssertionError("substituted the parameter values")

    with monkeypatch.context() as patched:
        patched.setattr(lf.solver, "substitute", refuse)
        got = [(family.lagrangian_at(a), family.multipliers_at(a))
               for a in assignments]
    for assignment, (lagrangians, multipliers) in zip(assignments, got):
        table = {p: Rational(v)
                 for p, v in family.param_values(assignment).items()}
        assert [prefix_expr(L) for L in lagrangians] == [
            prefix_expr(lf.substitute(L, table)) for L in family.lagrangians]
        assert {key: prefix_expr(e) for key, e in multipliers.items()} == {
            key: prefix_expr(lf.substitute(e, table))
            for key, e in family.multipliers.items()}


@pytest.mark.parametrize("name", ["so2 dx3", "affine1 dx1 g[-1,1]",
                                  "se2 dx1 g[0,1]"])
def test_by_param_names_the_run_that_leads_each_monomial(name):
    # `_by_param` tells a free parameter by its role; the reference looks
    # each symbol up among the family's free parameters, wherever it sits
    family = _solved(name)
    free = set(family.free_params)
    cases = [(family.runs[0], e) for e in family.el]
    cases += [(run, L) for run, L in zip(family.runs, family.lagrangians)]
    for run, e in cases:
        monos = [(c, pairs) for c, pairs in lf.monomials(e) if c]
        got = list(lf.solver._by_param(e))
        assert len(got) == len(monos)
        for (param, c, rest), (coeff, pairs) in zip(got, monos):
            held = [i for i, (atom, _) in enumerate(pairs)
                    if isinstance(atom, Sym) and atom.info in free]
            assert c == coeff and held in ([], [0])
            if held:
                assert pairs[0][0].info in run
                assert (param, rest) == (pairs[0][0].info, pairs[1:])
            else:
                assert (param, rest) == (None, pairs)
    for run, L in zip(family.runs, family.lagrangians):
        assert {p for p, _, _ in lf.solver._by_param(L)} == set(run)


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
    # the origin is a fixed point; an orbit that takes no step checks
    # nothing, so it is an input error
    assert lf.numeric_orbit_check(so2_lie, (0.0, 0.0),
                                  2 * math.pi).max_deviation == 0.0
    with pytest.raises(ValueError, match="--g-end 0.0 leaves no orbit step"):
        lf.numeric_orbit_check(so2_lie, (1.0, 0.0), 0.0)
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


def reference_orbit(lie, x0, g_end, step, compiled=False):
    """The orbit integration as a Python loop over the steps, walking the
    trees with eval_numeric or calling compile_numeric functions; a failed
    evaluation raises the ValueError numeric_orbit_check raises."""
    spec = lie.spec
    p = spec.params[0]
    rhs = [lie.onshell[lie.jets[a][0]] for a in range(lie.n)]
    if compiled:
        rhs_fn = lf.compile_numeric(
            rhs, [p.name] + [fld.name for fld in lie.fields])
        action_fn = lf.compile_numeric(
            spec.action, [p.name] + [c.name for c in spec.coords])

        def f(g, x):
            return rhs_fn(g, *x)

        def exact(g):
            return action_fn(g, *x0)
    else:
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
    try:
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
    except (NearSingularEvaluationError, OverflowError) as exc:
        raise ValueError(f"--g-end {g_end}: the orbit cannot be evaluated "
                         f"beyond g = {g}: {exc}") from None
    return verify.OrbitResult(max_deviation=deviation, steps=len(sizes),
                              final_state=tuple(x),
                              final_exact=tuple(exact(g)))


@pytest.mark.hash_order
@pytest.mark.parametrize("source,x0,g_end,step,want", ORBIT_BITS,
                         ids=ORBIT_IDS)
def test_orbit_bits_are_pinned(source, x0, g_end, step, want):
    assert orbit_bits(source, x0, g_end, step) == want


@pytest.mark.hash_order
@pytest.mark.parametrize("x0,g_end,step", [
    ((1.0, 0.0), 2 * math.pi, 1e-3),
    ((0.3, -1.7), -2.5, 7e-3),
])
def test_orbit_matches_tree_walking_reference_so2(so2_lie, x0, g_end, step):
    assert _bits(lf.numeric_orbit_check(so2_lie, x0, g_end, step=step)) == \
        _bits(reference_orbit(so2_lie, x0, g_end, step))


@pytest.mark.hash_order
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


@pytest.mark.hash_order
@pytest.mark.parametrize("x0,g_end", [
    ((1.0, 0.0), 2 * math.pi),      # a full turn
    ((0.3, -1.7), -3.0),            # backwards
    ((-1.25, 0.5), 1.00037),        # a last step of 0.37 steps
], ids=["full-turn", "negative", "short-last-step"])
def test_compiled_orbit_matches_compiled_reference_so2(so2_lie, x0, g_end):
    # bit for bit, against the loop over compile_numeric functions
    orbit = lf.numeric_orbit_check(so2_lie, x0, g_end)
    assert _bits(orbit) == _bits(reference_orbit(so2_lie, x0, g_end, 1e-3,
                                                 compiled=True))


@pytest.mark.hash_order
def test_compiled_orbit_matches_compiled_reference_at_a_pole():
    # three fields, and (1 + g)^-1 in the Lie equations: the orbit to g = -2
    # trips SINGULAR_GUARD in a stage and must name the same g
    lie = lf.constraints(lf.parse(SCALE3))
    x0 = (1.0, 0.5, -0.25)
    orbit = lf.numeric_orbit_check(lie, x0, 1.5)
    assert _bits(orbit) == _bits(reference_orbit(lie, x0, 1.5, 1e-3,
                                                 compiled=True))
    with pytest.raises(ValueError) as want:
        reference_orbit(lie, x0, -2.0, 1e-3, compiled=True)
    assert "below guard" in str(want.value)
    with pytest.raises(ValueError) as got:
        lf.numeric_orbit_check(lie, x0, -2.0)
    assert str(got.value) == str(want.value)


def _orbit_source(monkeypatch, source, x0, g_end):
    """The source `_compile_orbit` compiles for the orbit, as lines."""
    sources = []

    def spy(text, *args):
        sources.append(text)
        return compile(text, *args)

    monkeypatch.setattr(verify, "compile", spy, raising=False)
    lf.numeric_orbit_check(lf.constraints(lf.parse(source)), x0, g_end)
    monkeypatch.undo()
    (text,) = sources
    return [line.strip() for line in text.splitlines()]


def _operand_counts(line):
    """The number of operands of each `sum((...))` call in a line."""
    counts = []
    for start in (m.end() for m in re.finditer(r"\bsum\(\(", line)):
        depth, commas = 0, 0
        for ch in line[start:]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                commas += 1
        counts.append(commas)   # each operand is followed by ", "
    return counts


@pytest.mark.hash_order
@pytest.mark.parametrize("source,x0,g_end", [
    (lf.bundled_source("so2"), (1.0, 0.0), 1.5003),
    (SCALE3, (1.0, 0.5, -0.25), 1.5003),
], ids=["so2", "scale3"])
def test_orbit_source_sums_and_one_square_root(monkeypatch, source, x0,
                                               g_end):
    lines = _orbit_source(monkeypatch, source, x0, g_end)
    counts = [n for line in lines for n in _operand_counts(line)]
    assert 2 not in counts
    assert any(" = 0.0 + " in line for line in lines)
    # the deviation's square root is taken once, on return
    assert [line for line in lines if "_sqrt" in line] == \
        [line for line in lines if line.startswith("return ")]
    assert lines[-4].startswith("return g, _sqrt(dev2), ")


@pytest.mark.hash_order
def test_orbit_source_hoists_invariant_product_prefixes(monkeypatch):
    # so2's action term -1.0 * u1 * sin(g) multiplies its two loop-invariant
    # factors once, before the loop; no product in the loop starts with two
    lines = _orbit_source(monkeypatch, lf.bundled_source("so2"), (1.0, 0.0),
                          1.5003)
    loop = lines.index("for _ in range(count):")
    invariant = r"[cu]\d+"
    pair = rf"{invariant} \* {invariant}"
    assert any(re.fullmatch(rf"c\d+ = {pair}", line) for line in lines[:loop])
    assert not any(re.search(rf"= {pair}\b", line) for line in lines[loop:])


def test_orbit_constant_too_large_names_the_identity():
    # 10^400 overflows a float when the orbit is compiled, before any step
    lie = lf.constraints(lf.parse(SHEAR.replace("X1 + g*X2", "X1 + 10^400*g")))
    with pytest.raises(ValueError, match=r"^--g-end 1.0: the orbit cannot be "
                       r"evaluated beyond g = 0.0: .*too large"):
        lf.numeric_orbit_check(lie, (1.0, 0.0), 1.0)


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
