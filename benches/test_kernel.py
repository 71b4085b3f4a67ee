"""Micro-benchmarks of the expression kernel and the exact row reduction.

They run under pytest-benchmark and stay out of the tier-1 suite, whose
`testpaths` is `tests/`:

    PYTHONPATH=src python3 -m pytest benches
"""

import dataclasses

import pytest

import lagrforge as lf
from lagrforge import Power, Rational, Sum, Sym
from lagrforge.solver import rref

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
    """The solve-affine1 rung dx1 g[-1,1]: 96 unknowns a component."""
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


def test_substitute_onshell(benchmark, affine_family):
    lie = affine_family.lie
    e = lf.strong_el(lie, affine_family.lagrangians[0])[0]
    benchmark(lf.substitute, e, lie.onshell)


def test_rref_affine_system(benchmark, affine_family):
    system = affine_family.system
    rows, pivots = benchmark(rref, system.rows)
    assert len(pivots) == system.rank


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
