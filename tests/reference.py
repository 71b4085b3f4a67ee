"""Reference checks of explicit multipliers, built on the expression path.

No CLI stage runs them: the tests use them to check a candidate solution
against the solver, independently of the column tables the solve reads.
"""

from collections import defaultdict
from fractions import Fraction

from lagrforge.expr import RAT0, Expr, _sig, canonicalize, monomials
from lagrforge.solver import (MultiplierAnsatz, compose_lagrangian, rref,
                              weak_el_residual_of)


def lambda_map_residual(lie, lambda_map: dict, k: int, alpha: int) -> Expr:
    """Residual for explicit multiplier expressions keyed by (a, s) or
    (k, a, s); useful for checking a candidate solution directly."""
    lambdas = {(k, a, s): lambda_map.get((k, a, s),
                                         lambda_map.get((a, s), RAT0))
               for a in range(1, lie.n + 1) for s in range(1, lie.r + 1)}
    return weak_el_residual_of(lie, compose_lagrangian(lie, lambdas, k), alpha)


def coordinates_of(family, lambda_map: dict):
    """Free-parameter values realizing explicit multipliers, or None.

    The multipliers must be expressible over the ansatz basis and lie
    in the span of the family members.
    """
    w = _basis_vector(family.ansatz, lambda_map)
    if w is None:
        return None
    d = len(family.members)
    # one equation per column that w or a member holds
    support = sorted(set(w).union(*family.members))
    reduced, pivots = rref([[m.get(i, 0) for m in family.members]
                            + [w.get(i, 0)] for i in support])
    if d in pivots:
        return None  # inconsistent: w outside the span
    # consistent, so the reduced right-hand side solves it exactly
    t = {pc: row.get(d, Fraction(0)) for row, pc in zip(reduced, pivots)}
    return {p.name: t.get(j, Fraction(0))
            for j, p in enumerate(family.free_params)}


def _basis_vector(ansatz: MultiplierAnsatz, lambda_map: dict):
    """Sparse {column: Fraction} coefficients of explicit multipliers over
    the ansatz columns."""
    sig_to_m = {_sig(monomials(b)[0][1]): m
                for m, b in enumerate(ansatz.basis)}
    w = defaultdict(Fraction)
    for key, infos in ansatz.unknowns.items():
        expr = lambda_map.get(key, lambda_map.get(key[1:]))
        if expr is None:
            continue
        for coeff, pairs in monomials(canonicalize(expr)):
            if coeff == 0:
                continue
            m = sig_to_m.get(_sig(pairs))
            if m is None:
                return None
            w[infos[m].index[0]] += coeff
    return dict(w)
