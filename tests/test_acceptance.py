"""Acceptance gate: the documented SO(2) and affine results, end to end.

Each test prints one pass line; pytest -v adds the per-test verdict.
"""

import math
import random
import time
from fractions import Fraction

import lagrforge as lf
from lagrforge import Equivalence, Rational, Sym, canonicalize

from genexpr import VARS, random_expr, sample_point, try_eval


def test_criterion_01_so2_constraints_derive_quickly():
    start = time.perf_counter()
    lie = lf.constraints(lf.parse(lf.bundled_source("so2")))
    elapsed = time.perf_counter() - start
    f1, f2 = (Sym(f) for f in lie.fields)
    j1, j2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    assert lie.phi[0][0] == j1 + f2
    assert lie.phi[1][0] == j2 - f1
    assert elapsed < 1.0
    print(f"criterion 1: PASS - SO(2) constraints exact in {elapsed:.3f}s")


def test_criterion_02_so2_multiplier_system(so2_lie, so2_family):
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    restricted = lf.solve_family(so2_lie,
                                 lf.ansatz_from_basis(so2_lie, [f1, f2]))
    assert so2_lie.r * len(restricted.system.columns) == 4
    assert restricted.system.rank == 2
    # columns are (a1, a2, b1, b2); the row space encodes b1 = -a2, b2 = a1
    from lagrforge.solver import rref
    assert restricted.system.reduced == rref([[0, 1, 1, 0], [-1, 0, 0, 1]])
    assert restricted.system.reduced == ([{0: 1, 3: -1}, {1: 1, 2: 1}],
                                         [0, 1])

    j1, j2 = Sym(so2_lie.jets[0][0]), Sym(so2_lie.jets[1][0])
    a1, a2 = (Sym(p) for p in so2_family.free_params)
    expected = canonicalize(a1 * (f1 * j1 + f2 * j2)
                            + a2 * (f1 ** 2 + f2 ** 2 + f2 * j1 - f1 * j2))
    assert so2_family.lagrangians[0] == expected
    print("criterion 2: PASS - rank 2 in 4 unknowns; nullspace gives the"
          " two-parameter family exactly")


def test_criterion_03_forward_equivalence(so2_family):
    grid = lf.forward_check(so2_family)
    assert grid == [[Equivalence.PROVED_EQUAL, Equivalence.PROVED_EQUAL]]
    print("criterion 3: PASS - strong E-L vanishes on shell with symbolic"
          " parameters (ProvedEqual, ProvedEqual)")


def test_criterion_04_converse_and_degenerate_exit(so2_family, capsys):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    result = lf.converse_check(so2_family, {"a1": 0, "a2": 1})
    assert result.status == "Match"
    assert result.solved[lie.jets[0][0]] == -f2
    assert result.solved[lie.jets[1][0]] == f1
    assert lf.converse_check(so2_family, {"a2": 0}).status == \
        "Underdetermined"
    from lagrforge.cli import run
    code = run(["verify", "so2", "--params", "a2=0"])
    capsys.readouterr()
    assert code == 1
    print("criterion 4: PASS - converse solves (-X2', X1'); a2=0 is"
          " underdetermined and the CLI exits 1")


def test_criterion_05_numeric_orbit(so2_lie):
    start = time.perf_counter()
    orbit = lf.numeric_orbit_check(so2_lie, (1.0, 0.0), 2 * math.pi,
                                   step=1e-3)
    elapsed = time.perf_counter() - start
    assert orbit.max_deviation <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 5: PASS - orbit deviation {orbit.max_deviation:.3e}"
          f" over {orbit.steps} steps in {elapsed:.2f}s")


def test_criterion_06_kinetic_identity(so2_lie, so2_family):
    kin = lf.kinetic_identity_check(so2_lie, so2_family)
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    radius = f1 ** 2 + f2 ** 2
    assert kin.momentum_onshell == radius
    assert kin.energy_onshell == radius
    special = so2_family.lagrangian_at({"a1": 0,
                                        "a2": Fraction(-1, 2)})[0]
    assert special == kin.special_lagrangian
    assert kin.family_match == Equivalence.PROVED_EQUAL
    print("criterion 6: PASS - momentum and energy agree on shell; the"
          " a1=0, a2=-1/2 member is the special Lagrangian")


def test_criterion_07_affine_auxiliary_functions(affine_spec, affine_lie):
    g1, g2 = (Sym(p) for p in affine_spec.params)
    assert affine_lie.u == [[1 / g1, Rational(0)],
                           [-g2 / g1, Rational(1)]]
    identity = {p: e for p, e in zip(affine_spec.params,
                                     affine_spec.identity)}
    at_identity = [[lf.substitute(entry, identity) for entry in row]
                   for row in affine_lie.u]
    assert at_identity == [[Rational(1), Rational(0)],
                          [Rational(0), Rational(1)]]
    print("criterion 7: PASS - u = [[1/g1, 0], [-g2/g1, 1]] and"
          " u(identity) = I")


def test_criterion_08_affine_constraints_vanish(affine_spec, affine_lie):
    # independent recomputation: substitute the action for the fields and
    # its parameter derivatives for the jets
    subs = {}
    for a in range(affine_lie.n):
        subs[affine_lie.fields[a]] = affine_spec.action[a]
        for j, p in enumerate(affine_spec.params):
            subs[affine_lie.jets[a][j]] = lf.differentiate(
                affine_spec.action[a], p)
    for a in range(2):
        for j in range(2):
            on_action = lf.substitute(affine_lie.phi[a][j], subs)
            assert lf.equals(on_action, 0) == Equivalence.PROVED_EQUAL
    print("criterion 8: PASS - all four affine constraints vanish on the"
          " action (ProvedEqual)")


def psi_multipliers(lie, psi):
    """The documented affine solution: psi is any function of X'2."""
    f1 = Sym(lie.fields[0])
    g1 = Sym(lie.spec.params[0])
    return {
        (1, 1, 1): Rational(0), (1, 1, 2): psi,
        (1, 2, 1): psi, (1, 2, 2): psi,
        (2, 1, 1): psi, (2, 1, 2): canonicalize(-(f1 / g1) * psi),
        (2, 2, 1): Rational(0), (2, 2, 2): Rational(0),
    }


def test_criterion_09_affine_solution_membership(affine_lie, affine_family):
    f2 = Sym(affine_lie.fields[1])
    for psi in (Rational(1), f2):
        lam = psi_multipliers(affine_lie, psi)
        for k in (1, 2):
            for alpha in (1, 2):
                assert lf.lambda_map_residual(affine_lie, lam, k, alpha) == \
                    Rational(0)
        coords = affine_family.coordinates_of(lam)
        assert coords is not None
        realized = affine_family.multipliers_at(coords)
        for slot, e in lam.items():
            assert realized[slot] == canonicalize(e)
    print("criterion 9: PASS - psi=1 and psi=X2' multipliers are weak"
          " E-L null and lie in the computed nullspace")


def test_criterion_10_affine_converse(affine_lie, affine_family):
    f1 = Sym(affine_lie.fields[0])
    f2 = Sym(affine_lie.fields[1])
    g1, g2 = (Sym(p) for p in affine_lie.spec.params)
    coords = affine_family.coordinates_of(psi_multipliers(affine_lie, f2))
    result = lf.converse_check(affine_family, coords)
    assert result.status == "Match"
    j = affine_lie.jets
    assert result.solved[j[0][0]] == f1 / g1 - g2 / g1
    assert result.solved[j[0][1]] == Rational(1)
    assert result.solved[j[1][0]] == Rational(0)
    assert result.solved[j[1][1]] == Rational(0)
    assert result.unsolved == ()

    constant = affine_family.coordinates_of(
        psi_multipliers(affine_lie, Rational(1)))
    degenerate = lf.converse_check(affine_family, constant)
    assert degenerate.status == "Underdetermined"
    print("criterion 10: PASS - psi=X2' recovers the four Lie equations;"
          " constant psi is flagged Underdetermined")


def test_criterion_11_property_suites():
    # finite differences against the symbolic derivative
    rng = random.Random(420)
    h = 1e-6
    checked = 0
    draws = 0
    while checked < 50:
        draws += 1
        assert draws < 4000
        e = random_expr(rng)
        v = rng.choice(VARS)
        point = sample_point(rng)
        stencil = []
        usable = True
        for delta in (-h, h):
            shifted = dict(point)
            shifted[v.name] = point[v.name] + delta
            value = try_eval(e, shifted)
            if value is None or abs(value) > 1e4:
                usable = False
                break
            stencil.append(value)
        exact = try_eval(lf.differentiate(e, v), point) if usable else None
        if exact is None:
            continue
        fd = (stencil[1] - stencil[0]) / (2 * h)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))
        checked += 1

    # canonicalization is idempotent and value preserving
    rng = random.Random(2718)
    checked = 0
    draws = 0
    while checked < 100:
        draws += 1
        assert draws < 5000
        e = random_expr(rng)
        c = lf.canonicalize(e)
        assert lf.canonicalize(c) == c
        point = sample_point(rng)
        raw = try_eval(e, point)
        canon = try_eval(c, point)
        if raw is None or canon is None:
            continue
        assert abs(raw - canon) <= 1e-9 * max(1.0, abs(raw))
        checked += 1

    # DSL round trip and axiom sampling on both bundled groups
    for name in lf.bundled_names():
        spec = lf.parse(lf.bundled_source(name))
        assert lf.parse(lf.pretty_print(spec)) == spec
        report = lf.validate_axioms(spec, samples=100)
        assert report.ok
        for check in report.checks:
            assert check.verdict in ("Symbolic", "Numeric")
            if check.max_residual is not None:
                assert check.max_residual <= 1e-9
    print("criterion 11: PASS - derivative, canonicalization, round-trip,"
          " and axiom sampling suites hold at their tolerances")
