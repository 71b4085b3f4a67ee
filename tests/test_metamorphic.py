"""A monomial change of coordinates must not change the family.

Conjugating a group action by Y = c * X_pi, a permutation of the
coordinates each scaled by a non-zero rational, keeps the group law, and
it maps each Laurent monomial in X, X' and g to a constant multiple of
one, so it maps the multiplier ansatz onto itself.  The Euler operator
transforms covariantly under a linear change of the fields (Olver,
ch. 4), so the family and its converse status map across too.  Each
group below is written again in the new coordinates, as text, and both
are run through parse, derive, solve and both checks: the four axioms,
the family dimension, the forward verdicts and the converse status must
agree.  No CAS is needed, so the check reaches rungs past the benchmark.
"""

import pytest

import lagrforge as lf
from lagrforge import verify
from test_lie import SHEAR_SQUARE
from test_solver import SE2_SOURCE


def _rewritten(source, action):
    """`source` with its action line replaced by `action`."""
    lines = [line for line in source.splitlines()
             if line.strip().startswith("action:")]
    assert len(lines) == 1
    return source.replace(lines[0], f"  action: {action};")


SO2 = lf.bundled_source("so2")
AFFINE1 = lf.bundled_source("affine1")

# Each group, and its action written again under two changes of
# coordinates: one of each permutation, the second with a negative
# rational scale.
REWRITES = {
    "affine1": (AFFINE1, [
        # Y1 = 2*X1, Y2 = 3*X2
        "(g1*X1 + 2*g2, 3)",
        # Y1 = -2/3*X2, Y2 = -1/2*X1
        "(-2/3, g1*X2 - 1/2*g2)"]),
    "se2": (SE2_SOURCE, [
        # Y1 = 3*X2, Y2 = 3*X1
        "(X2*sin(t) + X1*cos(t) + 3*b, X2*cos(t) - X1*sin(t) + 3*a)",
        # Y1 = -1/2*X1, Y2 = 3*X2
        "(X1*cos(t) + 1/6*X2*sin(t) - 1/2*a, "
        "-6*X1*sin(t) + X2*cos(t) + 3*b)"]),
    "so2": (SO2, [
        # Y1 = X2, Y2 = X1
        "(X1*cos(g) + X2*sin(g), X2*cos(g) - X1*sin(g))",
        # Y1 = -2/3*X1, Y2 = 1/2*X2
        "(X1*cos(g) + 4/3*X2*sin(g), -3/4*X1*sin(g) + X2*cos(g))"]),
    "shear": (SHEAR_SQUARE, [
        # Y1 = X1, Y2 = 2*X2
        "(X1 + g, X2 + 2*(X1 + g)^2 - 2*X1^2)",
        # Y1 = -1/2*X2, Y2 = -1/3*X1
        "(X1 - 1/2*((g - 3*X2)^2 - 9*X2^2), X2 - 1/3*g)"]),
}

# (group, deg_x, deg_g); the last is past the benchmark's largest rung
RUNGS = [("so2", 1, (0, 0)), ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)),
         ("se2", 1, (0, 1)), ("shear", 1, (0, 0)), ("affine1", 3, (-2, 2))]


def _run(source, deg_x, deg_g):
    """(axiom verdicts, family dimension, forward grid, converse status at
    two seeded generic assignments)."""
    spec = lf.parse(source)
    axioms = [c.verdict for c in lf.validate_axioms(spec).checks]
    lie = lf.constraints(spec)
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    statuses = [lf.converse_check(family, verify.generic_params(family, seed),
                                  seed=seed).status
                for seed in (lf.DEFAULT_SEED, 7)]
    return axioms, family.dimension, lf.forward_check(family), statuses


@pytest.mark.parametrize("group,deg_x,deg_g", RUNGS,
                         ids=[f"{g} dx{x} g[{lo},{hi}]"
                              for g, x, (lo, hi) in RUNGS])
def test_change_of_coordinates_keeps_the_family(group, deg_x, deg_g):
    source, actions = REWRITES[group]
    original = _run(source, deg_x, deg_g)
    assert original[0] == ["Exact"] * 4
    assert original[1] > 0
    for action in actions:
        assert _run(_rewritten(source, action), deg_x, deg_g) == original, \
            action
