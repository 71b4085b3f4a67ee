"""The expression kernel and the solve against SymPy, a computer algebra
system that shares none of their code: canonical forms, derivatives and
substitutions over the seeded corpus of `genexpr.py`, exact values at
rational and circle points, and family dimensions collected from the
group text alone.  Skipped where SymPy is not installed."""

import itertools
import random
from fractions import Fraction

import pytest

import lagrforge as lf
from lagrforge import canonicalize, differentiate, format_expr, substitute
from lagrforge.expr import MODULUS, exact_value

from conftest import _to_sympy
from genexpr import ANGLES, VARS, random_exact_expr, random_expr
from test_lie import SHEAR_SQUARE, sympy_onshell_values

sp = pytest.importorskip("sympy")

SYMBOLS = [sp.Symbol(v.name) for v in VARS]


def _generators(e):
    """`e` with each sine and cosine argument in `sp.cancel`'s canonical
    form, so that equal arguments make one generator."""
    return e.replace(lambda a: isinstance(a, (sp.sin, sp.cos)),
                     lambda a: a.func(sp.cancel(a.args[0])))


def _same(got, want) -> bool:
    """Whether the kernel's `got` is SymPy's `want` as a rational function
    with the sines and cosines as generators: no trig identity counts."""
    return sp.cancel(_generators(_to_sympy(got, sp)) - _generators(want)) == 0


def _finite(e) -> bool:
    return not e.has(sp.zoo, sp.nan)


def test_canonical_forms_derivatives_and_substitutions_match_sympy():
    # canonicalize against cancel, differentiate against diff in each
    # variable, and a simultaneous substitution of x and y against subs;
    # a tree with a zero denominator is skipped, and so is a substitution
    # that makes one of the canonical form's denominators 0
    rng = random.Random(7919)
    checked = substituted = 0
    for _ in range(200):
        e = random_expr(rng)
        a, b = random_expr(rng, 2), random_expr(rng, 2)
        want = _to_sympy(e, sp)
        if not _finite(want):
            continue
        c = canonicalize(e)
        assert _same(c, want), format_expr(e)
        for v, s in zip(VARS, SYMBOLS):
            assert _same(differentiate(c, v), sp.diff(want, s)), \
                (format_expr(e), v.name)
        subbed = want.subs({SYMBOLS[0]: _to_sympy(a, sp),
                            SYMBOLS[1]: _to_sympy(b, sp)}, simultaneous=True)
        checked += 1
        if not _finite(subbed):
            continue
        try:
            got = substitute(c, {VARS[0]: a, VARS[1]: b})
        except ZeroDivisionError:
            continue
        assert _same(got, subbed), (format_expr(e), format_expr(a),
                                    format_expr(b))
        substituted += 1
    assert checked > 190 and substituted > 180


def _residue(v):
    return v.numerator * pow(v.denominator, -1, MODULUS) % MODULUS


def test_exact_values_match_sympy():
    # the draws of test_exact_value_is_the_fraction_value_mod_p: SymPy
    # expands each sine and cosine of a sum of angles into those of the
    # angles, puts in the rational point and the circle points, and its
    # value reduced mod p is exact_value's
    rng = random.Random(6101)
    checked = 0
    for _ in range(400):
        e = random_exact_expr(rng)
        c = canonicalize(e)
        env = {v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for v in VARS}
        values = {s: sp.Rational(env[v].numerator, env[v].denominator)
                  for v, s in zip(VARS, SYMBOLS)}
        for a in ANGLES:
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            env[a] = ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
            angle = sp.Symbol(a.name)
            values[sp.cos(angle)], values[sp.sin(angle)] = (
                sp.Rational(q.numerator, q.denominator) for q in env[a])
        want = sp.expand_trig(_to_sympy(e, sp)).subs(values)
        if not _finite(want):
            continue
        point = {k: tuple(map(_residue, v)) if isinstance(v, tuple)
                 else _residue(v) for k, v in env.items()}
        assert want.is_Rational, format_expr(e)
        assert exact_value(c, point, {}) == \
            _residue(Fraction(int(want.p), int(want.q))), format_expr(e)
        checked += 1
    assert checked > 300


def _family_dimension(source, deg_x, deg_g) -> int:
    """The family dimension of the ansatz (exponents 0..deg_x per field,
    deg_g[0]..deg_g[1] per group parameter) from the group text alone:
    L_1 = sum c * b_m * phi^a_s with phi^a_s = X'^a_s - xi^a_s, its E-L
    expressions dL/dX'^alpha - sum_s D_s dL/dX'^alpha_s with the jets at
    xi and the denominators cleared, each monomial's coefficient in the
    fields and parameters one row, and the unknowns the rank leaves free
    for each of the r components."""
    params, fields, jets, onshell = _onshell(source)
    r = len(params)
    basis = [sp.Mul(*(v ** e for v, e in zip(fields + params, exps)))
             for exps in itertools.product(
                 *[range(deg_x + 1)] * len(fields),
                 *[range(deg_g[0], deg_g[1] + 1)] * r)]
    unknowns = sp.symbols(f"c:{len(fields) * r * len(basis)}")
    slots = iter(unknowns)
    L = sp.Add(*(next(slots) * b * (J - onshell[J])
                 for row in jets for J in row for b in basis))
    rows = []
    for el in _euler_lagrange(L, params, fields, jets):
        numerator, _ = sp.together(el.xreplace(onshell)).as_numer_denom()
        rows += sp.Poly(numerator, *fields, *params).coeffs()
    matrix, _ = sp.linear_eq_to_matrix(rows, unknowns)
    return (len(unknowns) - matrix.rank()) * r


def _onshell(source) -> tuple:
    """(params, fields, jets[a][s], {jet: xi^a_s}) in SymPy from the group
    text alone, each xi free of sines and cosines, the jets named as the
    kernel names them."""
    params, fields, xi = sympy_onshell_values(source, sp)
    xi = [[sp.cancel(sp.trigsimp(v)) for v in row] for row in xi]
    assert not any(v.has(sp.sin, sp.cos) for row in xi for v in row)
    jets = [[sp.Symbol(f"{f.name}_{g.name}") for g in params]
            for f in fields]
    return params, fields, jets, {J: v for row, values in zip(jets, xi)
                                  for J, v in zip(row, values)}


def _euler_lagrange(L, params, fields, jets) -> list:
    """dL/dX'^alpha - sum_s D_s dL/dX'^alpha_s per field, for an L affine
    in the jets."""
    def total(A, s):
        # D_s of an A free of jets: along g_s, and along each field
        assert not A.has(*itertools.chain(*jets))
        return sp.diff(A, params[s]) + sp.Add(*(
            sp.diff(A, f) * row[s] for f, row in zip(fields, jets)))

    return [sp.diff(L, f) - sp.Add(*(total(sp.diff(L, J), s)
                                     for s, J in enumerate(row)))
            for f, row in zip(fields, jets)]


DIMENSION_RUNGS = [(lf.bundled_source("so2"), 1, (0, 0)),
                   (lf.bundled_source("so2"), 3, (0, 0)),
                   (lf.bundled_source("affine1"), 1, (-1, 0)),
                   (SHEAR_SQUARE, 1, (0, 0))]


@pytest.mark.parametrize("source,deg_x,deg_g", DIMENSION_RUNGS,
                         ids=["so2 dx1", "so2 dx3", "affine1 dx1 g[-1,0]",
                              "shear_square dx1"])
def test_family_dimension_matches_sympy_collection(source, deg_x, deg_g):
    # the solve's nullspace against an independent collection of the weak
    # E-L system and SymPy's rank over the rationals
    lie = lf.constraints(lf.parse(source))
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    assert family.dimension == _family_dimension(source, deg_x, deg_g)


@pytest.mark.parametrize("source,deg_x,deg_g", DIMENSION_RUNGS,
                         ids=["so2 dx1", "so2 dx3", "affine1 dx1 g[-1,0]",
                              "shear_square dx1"])
def test_family_lagrangians_vanish_on_shell_under_sympy(source, deg_x,
                                                        deg_g):
    # the forward check's oracle: SymPy derives each L_k's E-L with the
    # free parameters symbolic, puts the jets at xi, and every expression
    # cancels; the family's own on-shell residuals are canonically 0
    lie = lf.constraints(lf.parse(source))
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    params, fields, jets, onshell = _onshell(source)
    for k, L in enumerate(family.lagrangians, start=1):
        for alpha, el in enumerate(
                _euler_lagrange(_to_sympy(L, sp), params, fields, jets),
                start=1):
            assert sp.cancel(el.xreplace(onshell)) == 0, (k, alpha)
    assert family.residuals == [lf.Rational(0)] * lie.n
