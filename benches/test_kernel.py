"""Micro-benchmarks of the expression kernel and the exact row reduction.

They run under pytest-benchmark and stay out of the tier-1 suite, whose
`testpaths` is `tests/`:

    PYTHONPATH=src python3 -m pytest benches
"""

import math
import sys
from pathlib import Path

import pytest

import lagrforge as lf
from lagrforge import Power, Rational, Sum, Sym, cli
from lagrforge.expr import polynomial_expr
from lagrforge.solver import (collect_system, compose_lagrangian,
                              euler_lagrange, rref, weak_el_residual_of)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import rebuilt
from orbit_bits import SCALE3   # a group of the pinned orbits

POINT = (0.75, 1.0, -0.5)    # g, then the two fields or coordinates
SE2 = Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "se2.grp"


@pytest.fixture(scope="module")
def so2_lie():
    return lf.constraints(lf.parse(lf.bundled_source("so2")))


@pytest.fixture(scope="module", params=["rhs", "action"])
def so2_exprs(request, so2_lie):
    """The orbit's two expression lists and their argument names."""
    lie = so2_lie
    g = lie.spec.params[0].name
    if request.param == "rhs":
        return ([lie.onshell[lie.jets[a][0]] for a in range(lie.n)],
                [g] + [f.name for f in lie.fields])
    return list(lie.spec.action), [g] + [c.name for c in lie.spec.coords]


@pytest.fixture(scope="module")
def affine_lie():
    return lf.constraints(lf.parse(lf.bundled_source("affine1")))


@pytest.fixture(scope="module")
def affine_family(affine_lie):
    return lf.solve_family(affine_lie, lf.build_ansatz(affine_lie, deg_x=1,
                                                       deg_g=(-1, 0)))


@pytest.fixture(scope="module")
def affine_wide_ansatz(affine_lie):
    """The solve-affine1 rung dx1 g[-1,1]: 144 unknowns a component."""
    return lf.build_ansatz(affine_lie, deg_x=1, deg_g=(-1, 1))


def test_eval_numeric_so2(benchmark, so2_exprs):
    exprs, names = so2_exprs
    env = dict(zip(names, POINT))
    benchmark(lambda: [lf.eval_numeric(e, env) for e in exprs])


def test_compiled_so2(benchmark, so2_exprs):
    exprs, names = so2_exprs
    fn = lf.compile_numeric(exprs, names)
    env = dict(zip(names, POINT))
    assert list(fn(*POINT)) == [lf.eval_numeric(e, env) for e in exprs]
    benchmark(fn, *POINT)


def test_numeric_orbit_so2(benchmark, so2_lie):
    # the 6,284-step full turn of `example so2`, compiled and run
    orbit = benchmark(lf.numeric_orbit_check, so2_lie, (1.0, 0.0),
                      2 * math.pi)
    assert orbit.steps == 6284 and orbit.max_deviation <= 1e-6


def test_numeric_orbit_scale3(benchmark):
    # three fields, (1 + g)^-1 with its guard in the Lie equations, and a
    # short last step
    lie = lf.constraints(lf.parse(SCALE3))
    orbit = benchmark(lf.numeric_orbit_check, lie, (1.0, 0.5, -0.25), 1.5003)
    assert orbit.steps == 1501 and orbit.max_deviation <= 1e-9


def test_canonicalize_expansion(benchmark):
    x, y = (Sym(lf.SymbolInfo(n, lf.Role.BASE_COORDINATE)) for n in "xy")
    raw = Power(Sum((x, y, Rational(1))), 6)   # raw trees are never cached
    assert len(benchmark(lf.canonicalize, raw).terms) == 28


def test_differentiate_lagrangian(benchmark, affine_family):
    L = affine_family.lagrangians[0]
    benchmark(lf.differentiate, L, affine_family.lie.fields[0])


def test_differentiate_ansatz_lagrangian(benchmark, affine_wide_ansatz):
    # the multiplier ansatz L_1 = sum lambda*phi, as the residual build sees it
    L = affine_wide_ansatz.lagrangian_component(1)
    field = affine_wide_ansatz.lie.fields[0]
    benchmark(lf.differentiate, L, field)


@pytest.mark.parametrize("deg_x, deg_g, size",
                         [(1, (-1, 1), 36), (3, (-2, 2), 400)],
                         ids=["dx1-gm1_1", "dx3-gm2_2"])
def test_build_ansatz(benchmark, affine_lie, deg_x, deg_g, size):
    # the monomial basis, each monomial made from its (symbol, exponent)
    # pairs; no unknown is built
    ansatz = benchmark(lf.build_ansatz, affine_lie, deg_x=deg_x, deg_g=deg_g)
    assert len(ansatz.basis) == size
    assert "unknowns" not in vars(ansatz)


def test_solve_family_affine(benchmark, affine_lie, affine_wide_ansatz):
    family = benchmark(lf.solve_family, affine_lie, affine_wide_ansatz)
    assert family.dimension == 104
    # the sums over the free parameters are built only when read
    assert "multipliers" not in vars(family)
    assert "lagrangians" not in vars(family)


@pytest.mark.parametrize("deg_x, deg_g, dimension",
                         [(2, (-1, 1), 180), (3, (-2, 2), 1024)],
                         ids=["dx2-gm1_1", "dx3-gm2_2"])
def test_solve_family_affine_scale(benchmark, affine_lie, deg_x, deg_g,
                                   dimension):
    # rungs past the benchmark ladder, to show how the solve scales; the
    # dx3 rung (1,600 block columns) takes seconds, so it runs once
    ansatz = lf.build_ansatz(affine_lie, deg_x=deg_x, deg_g=deg_g)
    if deg_x == 3:
        family = benchmark.pedantic(lf.solve_family, (affine_lie, ansatz),
                                    rounds=1)
    else:
        family = benchmark(lf.solve_family, affine_lie, ansatz)
    assert family.dimension == dimension


@pytest.mark.parametrize("deg_x, dimension", [(1, 104), (2, 180)],
                         ids=["dx1-gm1_1", "dx2-gm1_1"])
def test_family_payload_affine(benchmark, affine_lie, deg_x, dimension):
    # the JSON payload of `solve affine1 --deg-x N --deg-g-min -1
    # --deg-g-max 1`: the family's multipliers and L_k in prefix text,
    # spliced from each block vector's text
    family = lf.solve_family(affine_lie, lf.build_ansatz(
        affine_lie, deg_x=deg_x, deg_g=(-1, 1)))
    payload = benchmark(cli._family_payload, family)
    assert len(payload["family"]["free_params"]) == dimension


def test_substitute_onshell(benchmark, affine_family):
    lie = affine_family.lie
    e = lf.strong_el(lie, affine_family.lagrangians[0])[0]
    benchmark(lf.substitute, e, lie.onshell)


def test_compose_lagrangian(benchmark, affine_wide_ansatz):
    # L_1 = sum lambda*phi over the solve-affine1 rung dx1 g[-1,1]
    ansatz = affine_wide_ansatz
    L = benchmark(compose_lagrangian, ansatz.lie, ansatz.lambdas, 1)
    assert len(L.terms) == 252


def test_euler_lagrange(benchmark, affine_wide_ansatz):
    # the E-L expression of that L_1 for the first field, before the
    # on-shell values are substituted
    L = affine_wide_ansatz.lagrangian_component(1)
    benchmark(euler_lagrange, affine_wide_ansatz.lie, L, 1)


@pytest.fixture(scope="module")
def se2_family():
    """The family of `verify se2 --deg-x 1 --deg-g-max 1`: sin and cos
    atoms in its Lagrangians' monomials."""
    lie = lf.constraints(lf.parse(SE2.read_text()))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=1, deg_g=(0, 1)))


def test_strong_el_se2(benchmark, se2_family):
    # L_1's E-L expressions, as verify derives them: each monomial's
    # symbols are read off its sin/cos atoms
    family = se2_family
    el = benchmark(lf.strong_el, family.lie, family.lagrangians[0])
    assert len(el) == family.lie.n


def test_substitute_onshell_se2(benchmark, se2_family):
    # its first E-L expression on shell: the jets sit beside the sin/cos
    # atoms, never inside them, so no monomial takes the tree path
    lie = se2_family.lie
    e = lf.strong_el(lie, se2_family.lagrangians[0])[0]
    benchmark(lf.substitute, e, lie.onshell)


def test_column_table(benchmark, affine_wide_ansatz):
    # the residual of that L_1 for the first field, written column by column
    # from the ansatz as `solve_family` builds it: no unknown, no L_1, no
    # residual expression
    ansatz = affine_wide_ansatz
    table = benchmark(weak_el_residual_of, ansatz.lie, ansatz, 1)
    L = ansatz.lagrangian_component(1)
    rows = collect_system([table], ansatz).rows
    assert rows == [{j: v for j, v in enumerate(row) if v}
                    for row in collect_system(
                        [weak_el_residual_of(ansatz.lie, L, 1)], ansatz).rows]


@pytest.fixture(scope="module")
def affine_wide_residuals(affine_wide_ansatz):
    """The weak E-L residuals of L_1 on the rung dx1 g[-1,1], one a field."""
    lie = affine_wide_ansatz.lie
    L = affine_wide_ansatz.lagrangian_component(1)
    return [weak_el_residual_of(lie, L, alpha)
            for alpha in range(1, lie.n + 1)]


def test_polynomial_expr_residual(benchmark, affine_wide_residuals):
    # collect the residuals' monomials, all fields together so that like
    # terms meet
    monos = [m for e in affine_wide_residuals for m in lf.monomials(e)]
    e = benchmark(polynomial_expr, monos)
    assert e == lf.canonicalize(Sum(tuple(affine_wide_residuals)))


def test_collect_and_rref_affine_block(benchmark, affine_wide_ansatz,
                                       affine_wide_residuals):
    # the block system of L_1 as `solve_family` collects and reduces it
    def collect_and_reduce():
        system = collect_system(affine_wide_residuals, affine_wide_ansatz)
        return rref(system.rows)
    reduced, pivots = benchmark(collect_and_reduce)
    assert len(pivots) == 92    # of 144 block columns


def test_rref_affine_system(benchmark, affine_family):
    system = affine_family.system
    rows, pivots = benchmark(rref, system.rows)
    assert len(pivots) == system.rank


def test_rref_affine_wide_block(benchmark, affine_lie):
    # the 660 x 900 block of `solve affine1 --deg-x 2 --deg-g-min -2
    # --deg-g-max 2`, reduced fraction-free
    ansatz = lf.build_ansatz(affine_lie, deg_x=2, deg_g=(-2, 2))
    system = collect_system([weak_el_residual_of(affine_lie, ansatz, alpha)
                             for alpha in (1, 2)], ansatz)
    assert (len(system.rows), len(system.columns)) == (660, 900)
    rows, pivots = benchmark(rref, system.rows)
    assert len(pivots) == 588


@pytest.fixture(scope="module")
def so2_dx4_family():
    """The family of `verify so2 --deg-x 4`: four free parameters."""
    lie = lf.constraints(lf.parse(lf.bundled_source("so2")))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=4, deg_g=(0, 0)))


def test_build_report_so2_dx4(benchmark, so2_dx4_family):
    # forward check, converse check and degeneracy scan; each round gets a
    # fresh copy of the family, so its E-L system is derived in the round
    family = so2_dx4_family
    params = lf.verify.generic_params(family, lf.DEFAULT_SEED)
    report = benchmark.pedantic(
        lf.build_report,
        setup=lambda: ((rebuilt(family), params), {}),
        rounds=5)
    assert report.ok and len(report.degeneracy.entries) == 5


def test_converse_affine1_dx1_gm1_1(benchmark, affine_lie, affine_wide_ansatz):
    # the converse check of `verify affine1 --deg-x 1 --deg-g-min -1
    # --deg-g-max 1`; what the checks derive once per family (the E-L
    # system, its on-shell forms and its split jet coefficients) is built
    # by one check before timing, so a round is one check's own work, as
    # each of the degeneracy scan's checks is
    family = lf.solve_family(affine_lie, affine_wide_ansatz)
    params = lf.verify.generic_params(family, lf.DEFAULT_SEED)
    lf.converse_check(family, params)
    result = benchmark(lf.converse_check, family, params)
    assert result.status == "Match" and len(result.solved) == 4


# rungs past the benchmark's largest, where verify costs three to four
# times the solve
LARGE_RUNGS = {
    "affine1-dx3-gm2_2": (lf.bundled_source("affine1"), 3, (-2, 2)),
    "se2-dx4-g0_1": (SE2.read_text(), 4, (0, 1))}


@pytest.fixture(scope="module", params=sorted(LARGE_RUNGS))
def large_family(request):
    source, deg_x, deg_g = LARGE_RUNGS[request.param]
    lie = lf.constraints(lf.parse(source))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                deg_g=deg_g))


def test_residuals_large(benchmark, large_family):
    # component 1's E-L with the free parameters symbolic (`strong_el`)
    # and on shell (`substitute`), read off a fresh copy of the family
    # each round
    family = large_family
    residuals = benchmark.pedantic(
        lambda fresh: fresh.residuals,
        setup=lambda: ((rebuilt(family),), {}), rounds=3)
    assert residuals == [Rational(0)] * family.lie.n


def test_converse_large(benchmark, large_family):
    # the converse check at generic values: the jet tables at the seeded
    # point and the RREF of the jet matrix.  Each round's fresh copy of the
    # family carries its E-L over, so the round derives no E-L
    family = large_family
    params = lf.verify.generic_params(family, lf.DEFAULT_SEED)

    def fresh():
        copy = rebuilt(family)
        copy.el, copy.residuals = family.el, family.residuals
        return (copy, params), {}

    result = benchmark.pedantic(lf.converse_check, setup=fresh, rounds=3)
    assert result.status == "Match" and not result.unsolved
