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
agree.  Member by member, each block Lagrangian with its fields and jets
put through the change of coordinates must lie in the rewritten family.
No CAS is needed, so the check reaches rungs past the benchmark.
"""

import functools
from fractions import Fraction

import pytest

import lagrforge as lf
from lagrforge import Rational, Sym, verify
from lagrforge.solver import rref
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
# rational scale.  A change Y_i = c_i * X_pi(i) is ((pi(i), c_i), ...),
# 0-based.
REWRITES = {
    "affine1": (AFFINE1, [
        # Y1 = 2*X1, Y2 = 3*X2
        (((0, 2), (1, 3)), "(g1*X1 + 2*g2, 3)"),
        # Y1 = -2/3*X2, Y2 = -1/2*X1
        (((1, Fraction(-2, 3)), (0, Fraction(-1, 2))),
         "(-2/3, g1*X2 - 1/2*g2)")]),
    "se2": (SE2_SOURCE, [
        # Y1 = 3*X2, Y2 = 3*X1
        (((1, 3), (0, 3)),
         "(X2*sin(t) + X1*cos(t) + 3*b, X2*cos(t) - X1*sin(t) + 3*a)"),
        # Y1 = -1/2*X1, Y2 = 3*X2
        (((0, Fraction(-1, 2)), (1, 3)),
         "(X1*cos(t) + 1/6*X2*sin(t) - 1/2*a, "
         "-6*X1*sin(t) + X2*cos(t) + 3*b)")]),
    "so2": (SO2, [
        # Y1 = X2, Y2 = X1
        (((1, 1), (0, 1)),
         "(X1*cos(g) + X2*sin(g), X2*cos(g) - X1*sin(g))"),
        # Y1 = -2/3*X1, Y2 = 1/2*X2
        (((0, Fraction(-2, 3)), (1, Fraction(1, 2))),
         "(X1*cos(g) + 4/3*X2*sin(g), -3/4*X1*sin(g) + X2*cos(g))")]),
    "shear": (SHEAR_SQUARE, [
        # Y1 = X1, Y2 = 2*X2
        (((0, 1), (1, 2)), "(X1 + g, X2 + 2*(X1 + g)^2 - 2*X1^2)"),
        # Y1 = -1/2*X2, Y2 = -1/3*X1
        (((1, Fraction(-1, 2)), (0, Fraction(-1, 3))),
         "(X1 - 1/2*((g - 3*X2)^2 - 9*X2^2), X2 - 1/3*g)")]),
}

# (group, deg_x, deg_g); the last is past the benchmark's largest rung
RUNGS = [("so2", 1, (0, 0)), ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)),
         ("se2", 1, (0, 1)), ("shear", 1, (0, 0)), ("affine1", 3, (-2, 2))]


@functools.cache
def _solved(source, deg_x, deg_g):
    """The family of `source` at the rung, solved once a module."""
    lie = lf.constraints(lf.parse(source))
    return lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                deg_g=deg_g))


def _run(source, deg_x, deg_g):
    """(axiom verdicts, family dimension, forward grid, converse status at
    two seeded generic assignments)."""
    axioms = [c.verdict for c in lf.validate_axioms(lf.parse(source)).checks]
    family = _solved(source, deg_x, deg_g)
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
    for _, action in actions:
        assert _run(_rewritten(source, action), deg_x, deg_g) == original, \
            action


def _images(family, rewritten, change) -> list:
    """`family`'s block Lagrangians in the coordinates of `rewritten`: with
    Y = A * X, each field X'^a is (A^-1 Y')^a and each jet X'^a_s is
    (A^-1 Y'_s)^a."""
    lie, new = family.lie, rewritten.lie
    table = {}
    for i, (a, c) in enumerate(change):
        inverse = Rational(1 / Fraction(c))
        table[lie.fields[a]] = inverse * Sym(new.fields[i])
        table |= {J: inverse * Sym(K)
                  for J, K in zip(lie.jets[a], new.jets[i])}
    return [lf.substitute(L, table) for L in family.block_lagrangians]


def _rank(exprs) -> int:
    """The rank of `exprs` as vectors over their monomial signatures."""
    columns = {}
    return len(rref([{columns.setdefault(pairs, len(columns)): c
                      for c, pairs in lf.monomials(e) if c}
                     for e in exprs])[1])


@pytest.mark.parametrize("group,deg_x,deg_g", RUNGS,
                         ids=[f"{g} dx{x} g[{lo},{hi}]"
                              for g, x, (lo, hi) in RUNGS])
def test_change_of_coordinates_maps_each_member(group, deg_x, deg_g):
    # each block Lagrangian, put through the change of coordinates, is a
    # member of the rewritten family: the images and the rewritten block
    # Lagrangians each have full rank, and together no more
    source, actions = REWRITES[group]
    family = _solved(source, deg_x, deg_g)
    d = len(family.block_lagrangians)
    for change, action in actions:
        rewritten = _solved(_rewritten(source, action), deg_x, deg_g)
        images = _images(family, rewritten, change)
        assert _rank(images) == _rank(rewritten.block_lagrangians) == d
        assert _rank(images + rewritten.block_lagrangians) == d, action
