"""Micro-benchmarks of the expression kernel and the exact row reduction.

They run under pytest-benchmark and stay out of the tier-1 suite, whose
`testpaths` is `tests/`:

    PYTHONPATH=src python3 -m pytest benches
"""

import dataclasses
import math

import pytest

import lagrforge as lf
from lagrforge import Power, Rational, Sum, Sym, cli
from lagrforge.expr import polynomial_expr
from lagrforge.solver import (collect_system, compose_lagrangian,
                              euler_lagrange, rref, weak_el_residual_of)

POINT = (0.75, 1.0, -0.5)    # g, then the two fields or coordinates


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


def test_family_payload_affine(benchmark, affine_lie, affine_wide_ansatz):
    # the JSON payload of `solve affine1 --deg-x 1 --deg-g-min -1
    # --deg-g-max 1`: the family's multipliers and L_k in prefix text
    family = lf.solve_family(affine_lie, affine_wide_ansatz)
    payload = benchmark(cli._family_payload, family)
    assert len(payload["family"]["free_params"]) == 104


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
        setup=lambda: ((dataclasses.replace(family), params), {}),
        rounds=5)
    assert report.ok and len(report.degeneracy.entries) == 5


def test_converse_affine1_dx1_gm1_1(benchmark, affine_lie, affine_wide_ansatz):
    # the converse check of `verify affine1 --deg-x 1 --deg-g-min -1
    # --deg-g-max 1`; the family's E-L system is derived before timing, as
    # the forward check derives it before the converse check in a report
    family = lf.solve_family(affine_lie, affine_wide_ansatz)
    family.strong_el
    params = lf.verify.generic_params(family, lf.DEFAULT_SEED)
    result = benchmark(lf.converse_check, family, params)
    assert result.status == "Match" and len(result.solved) == 4
