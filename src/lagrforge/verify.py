"""Verification that derived Lagrangians reproduce the group's Lie equations.

The forward direction substitutes the on-shell jet values into the strong
Euler-Lagrange expressions and checks that they vanish.  The converse
direction treats the jets as unknowns of the Euler-Lagrange system, solves
it by exact elimination, and compares the solution with the Lie right-hand
sides.  Diagnostics cover parameter degeneracy, a planar kinetic identity,
and a numeric orbit integration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, Equivalence,
                   Expr, Power, Product, RAT_M1, Rational, Sum, Sym,
                   canonicalize, differentiate, equals, eval_numeric,
                   format_expr, free_symbols, sample_expr, substitute)
from .solver import SecondOrderJetError, euler_lagrange


class ShapeMismatchError(ValueError):
    """A check was requested for a group shape it does not apply to."""


# ---------------------------------------------------------------------------
# Strong Euler-Lagrange expressions.


def strong_el(lie, L: Expr) -> list:
    """Full E-L expressions of one Lagrangian component, one per field."""
    return [euler_lagrange(lie, L, alpha) for alpha in range(1, lie.n + 1)]


def forward_check(family, samples: int = EQUALS_SAMPLES,
                  seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> list:
    """Verdict grid [k][alpha]: strong E-L vanishes on shell, free
    parameters kept symbolic."""
    lie = family.lie
    grid = []
    for L in family.lagrangians:
        row = []
        for e in strong_el(lie, L):
            onshell = substitute(e, lie.onshell)
            row.append(equals(onshell, 0, samples=samples, seed=seed, tol=tol))
        grid.append(row)
    return grid


# ---------------------------------------------------------------------------
# Converse: solve the E-L system for the jets.


@dataclass
class ConverseResult:
    params: dict             # free parameter name -> Fraction
    equations: list          # (k, alpha, Expr) strong E-L at the parameters
    solved: dict             # jet SymbolInfo -> Expr, free of solved jets
    unsolved: tuple          # jet names the system does not determine
    comparisons: list        # (jet name, Equivalence vs the Lie value)
    status: str              # Match | Underdetermined | Mismatch
    witness: Optional[dict] = None


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Rational) and e.value == 0


def converse_check(family, params, samples: int = EQUALS_SAMPLES,
                   seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> ConverseResult:
    """Solve the full E-L system for the jets and compare with the Lie
    equations.

    The system is linear in the jets with coefficients rational in the
    fields and parameters, so it is reduced by cross-multiplied Gaussian
    elimination (no divisions enter intermediate rows) with equations
    visited in component order and pivots chosen in jet declaration
    order; eliminating a pivot from the remaining rows is the chaining a
    hand derivation does.  Comparisons against the Lie right-hand sides
    are cross-multiplied too: pivot row c*J + rest = 0 matches the Lie
    value o when rest + c*o vanishes.
    """
    lie = family.lie
    values = family.param_values(params)
    table = {p: Rational(v) for p, v in values.items()}
    named = {p.name: v for p, v in values.items()}

    equations = []
    for k, L in enumerate(family.lagrangians, start=1):
        Lk = substitute(L, table)
        for alpha, e in enumerate(strong_el(lie, Lk), start=1):
            equations.append((k, alpha, e))

    jet_order = lie.jet_list()
    jet_set = set(jet_order)

    def vanishes(e: Expr) -> bool:
        if _is_zero(e):
            return True
        return equals(e, 0, samples=samples, seed=seed,
                      tol=tol) != Equivalence.PROVED_UNEQUAL

    zero_jets = {J: Rational(0) for J in jet_order}
    rows = []
    for k, alpha, e in equations:
        coeffs = {}
        for J in jet_order:
            c = differentiate(e, J)
            if free_symbols(c) & jet_set:
                raise SecondOrderJetError(
                    "E-L system is not linear in the jet variables")
            if not _is_zero(c):
                coeffs[J] = c
        rows.append({"coeffs": coeffs, "const": substitute(e, zero_jets),
                     "tag": (k, alpha)})

    def combine(target, pivot, J):
        """pivot-coefficient times target minus target-coefficient times
        pivot; cancels J without introducing a division."""
        cp = pivot["coeffs"][J]
        ct = target["coeffs"][J]
        out = {}
        for K in set(target["coeffs"]) | set(pivot["coeffs"]):
            if K == J:
                continue
            v = canonicalize(cp * target["coeffs"].get(K, Rational(0))
                             - ct * pivot["coeffs"].get(K, Rational(0)))
            if not _is_zero(v):
                out[K] = v
        const = canonicalize(cp * target["const"] - ct * pivot["const"])
        return {"coeffs": out, "const": const, "tag": target["tag"]}

    pivot_rows: dict = {}
    spare = []
    for row in rows:
        for J in list(pivot_rows):
            if J in row["coeffs"]:
                row = combine(row, pivot_rows[J], J)
        pivot = None
        for J in jet_order:
            if J in pivot_rows or J not in row["coeffs"]:
                continue
            if vanishes(row["coeffs"][J]):
                continue  # coefficient is zero as a function
            pivot = J
            break
        if pivot is None:
            spare.append(row)
            continue
        for K in list(pivot_rows):
            if pivot in pivot_rows[K]["coeffs"]:
                pivot_rows[K] = combine(pivot_rows[K], row, pivot)
        pivot_rows[pivot] = row

    unsolved = tuple(J.name for J in jet_order if J not in pivot_rows)
    status = "Match"
    witness = None

    # a spare row has only functionally-zero jet coefficients left, so it
    # asserts that its constant part vanishes
    for row in spare:
        if vanishes(row["const"]):
            continue
        outcome = sample_expr(row["const"], samples=samples, seed=seed)
        status = "Mismatch"
        k, alpha = row["tag"]
        witness = {"component": k, "field": alpha,
                   "expression": format_expr(row["const"]),
                   "point": outcome.witness, "magnitude": outcome.max_abs}
        break

    solved = {}
    comparisons = []
    for J in jet_order:
        row = pivot_rows.get(J)
        if row is None:
            continue
        c = row["coeffs"][J]
        others = [Product((v, Sym(K)))
                  for K, v in row["coeffs"].items() if K != J]
        rest = canonicalize(Sum((row["const"], *others)))
        # negated before the division: one flat product would cancel a sum
        # in `rest` against `c` and could print another canonical form
        solved[J] = RAT_M1 * rest * Power(c, -1)
        if others:
            continue  # expressed through undetermined jets; not comparable
        residual = canonicalize(row["const"] + c * lie.onshell[J])
        verdict = equals(residual, 0, samples=samples, seed=seed, tol=tol)
        comparisons.append((J.name, verdict))
        if verdict == Equivalence.PROVED_UNEQUAL and status != "Mismatch":
            outcome = sample_expr(residual, samples=samples, seed=seed)
            status = "Mismatch"
            witness = {"jet": J.name,
                       "solved": format_expr(solved[J]),
                       "expected": format_expr(lie.onshell[J]),
                       "point": outcome.witness, "magnitude": outcome.max_abs}
    if status == "Match" and unsolved:
        status = "Underdetermined"
    return ConverseResult(params=named, equations=equations, solved=solved,
                          unsolved=unsolved, comparisons=comparisons,
                          status=status, witness=witness)


# ---------------------------------------------------------------------------
# Degeneracy scan.


@dataclass
class DegeneracyEntry:
    label: str
    assignment: dict         # parameter name -> Fraction
    status: str


@dataclass
class DegeneracyReport:
    entries: list
    degenerate: list         # labels with status != Match


def generic_params(family, seed: int) -> dict:
    """A seeded rational value in [1/9, 9] for every free parameter."""
    rng = random.Random(seed)
    return {p.name: Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for p in family.free_params}


def degeneracy_scan(family, seed: int = DEFAULT_SEED,
                    samples: int = EQUALS_SAMPLES,
                    tol: float = EQUALS_TOL) -> DegeneracyReport:
    """Try each family direction alone plus one generic rational mix.

    A specialization that leaves the E-L system unable to reproduce the
    Lie equations (Underdetermined or Mismatch) is reported as degenerate.
    """
    if len(family.free_params) > 4:
        raise ValueError("degeneracy scan is limited to 4 free parameters; "
                         f"this family has {len(family.free_params)}")
    entries = []
    for p in family.free_params:
        assignment = {p.name: Fraction(1)}
        result = converse_check(family, assignment, samples=samples,
                                seed=seed, tol=tol)
        entries.append(DegeneracyEntry(label=f"{p.name} alone",
                                       assignment=assignment,
                                       status=result.status))
    generic = generic_params(family, seed)
    result = converse_check(family, generic, samples=samples,
                            seed=seed, tol=tol)
    entries.append(DegeneracyEntry(label="generic combination",
                                   assignment=generic, status=result.status))
    degenerate = [e.label for e in entries if e.status != "Match"]
    return DegeneracyReport(entries=entries, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Planar kinetic identity.


@dataclass
class KineticIdentity:
    verdict: Equivalence
    momentum_onshell: Expr       # X'^1 jet2 - jet1 X'^2 after substitution
    energy_onshell: Expr         # jet1^2 + jet2^2 after substitution
    special_lagrangian: Expr     # the momentum-minus-radius form
    family_match: Optional[Equivalence] = None


def kinetic_identity_check(lie, family=None, samples: int = EQUALS_SAMPLES,
                           seed: int = DEFAULT_SEED,
                           tol: float = EQUALS_TOL) -> KineticIdentity:
    """On shell, angular momentum about the origin should equal twice the
    kinetic energy; only meaningful for one-parameter planar actions."""
    if (lie.r, lie.n) != (1, 2):
        raise ShapeMismatchError(
            f"kinetic identity needs r=1, n=2; got r={lie.r}, n={lie.n}")
    F1, F2 = (Sym(f) for f in lie.fields)
    J1, J2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    momentum = F1 * J2 - J1 * F2
    energy = J1 * J1 + J2 * J2
    momentum_on = substitute(momentum, lie.onshell)
    energy_on = substitute(energy, lie.onshell)
    verdict = equals(momentum_on, energy_on, samples=samples, seed=seed,
                     tol=tol)
    half = Rational(1, 2)
    special = canonicalize(half * momentum - half * (F1 * F1 + F2 * F2))
    family_match = None
    if family is not None and family.dimension == 2:
        a1, a2 = family.free_params
        L = family.lagrangian_at({a1.name: 0, a2.name: Fraction(-1, 2)})[0]
        family_match = equals(L, special, samples=samples, seed=seed, tol=tol)
    return KineticIdentity(verdict=verdict, momentum_onshell=momentum_on,
                           energy_onshell=energy_on,
                           special_lagrangian=special,
                           family_match=family_match)


# ---------------------------------------------------------------------------
# Numeric orbit integration.


@dataclass
class OrbitResult:
    max_deviation: float
    steps: int
    final_state: tuple
    final_exact: tuple


def numeric_orbit_check(lie, x0, g_end: float, step: float = 1e-3) -> OrbitResult:
    """Integrate the Lie equations with the classical fourth-order
    one-step method and compare against the closed-form action.

    The integration runs in the group parameter from its identity value to
    g_end at fixed step (the final step may be shorter); the deviation is
    the maximum Euclidean distance over all grid points.
    """
    if lie.r != 1:
        raise ShapeMismatchError(
            f"orbit integration needs a one-parameter group; got r={lie.r}")
    if step <= 0:
        raise ValueError("step must be positive")
    spec = lie.spec
    p = spec.params[0]
    rhs = [lie.onshell[lie.jets[a][0]] for a in range(lie.n)]
    x0 = [float(v) for v in x0]
    if len(x0) != lie.n:
        raise ValueError(f"initial state needs {lie.n} components")

    def f(g, x):
        env = {p.name: g}
        for a in range(lie.n):
            env[lie.fields[a].name] = x[a]
        return [eval_numeric(e, env) for e in rhs]

    coord_env = {c.name: v for c, v in zip(spec.coords, x0)}

    def exact(g):
        env = dict(coord_env)
        env[p.name] = g
        return [eval_numeric(A, env) for A in spec.action]

    g0 = eval_numeric(spec.identity[0], {})
    total = g_end - g0
    n_full = int(abs(total) // step)
    sizes = [step] * n_full
    rem = abs(total) - n_full * step
    if rem > step * 1e-9:
        sizes.append(rem)
    sign = 1.0 if total >= 0 else -1.0

    x = list(x0)
    g = g0
    deviation = _euclid(x, exact(g))
    for h in sizes:
        h = h * sign
        k1 = f(g, x)
        k2 = f(g + h / 2, [xi + h / 2 * ki for xi, ki in zip(x, k1)])
        k3 = f(g + h / 2, [xi + h / 2 * ki for xi, ki in zip(x, k2)])
        k4 = f(g + h, [xi + h * ki for xi, ki in zip(x, k3)])
        x = [xi + h / 6 * (a + 2 * b + 2 * c + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        g = g + h
        deviation = max(deviation, _euclid(x, exact(g)))
    return OrbitResult(max_deviation=deviation, steps=len(sizes),
                       final_state=tuple(x), final_exact=tuple(exact(g)))


def _euclid(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# Report assembly.


@dataclass
class VerificationReport:
    lie: object
    family: object
    params: dict
    forward: list                       # [k][alpha] Equivalence grid
    converse: ConverseResult
    degeneracy: Optional[DegeneracyReport] = None
    kinetic: Optional[KineticIdentity] = None
    orbit: Optional[OrbitResult] = None
    orbit_tol: float = 1e-6
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        for row in self.forward:
            for verdict in row:
                if verdict == Equivalence.PROVED_UNEQUAL:
                    return False
        if self.converse.status != "Match":
            return False
        if self.orbit is not None and self.orbit.max_deviation > self.orbit_tol:
            return False
        return True


def build_report(family, params, numeric: bool = False, x0=None,
                 g_end: float = None, step: float = 1e-3,
                 orbit_tol: float = 1e-6, samples: int = EQUALS_SAMPLES,
                 seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> VerificationReport:
    """Run every applicable check on a family at fixed parameter values.

    The degeneracy scan and the kinetic identity are diagnostics and never
    gate the report; the forward check, the converse check, and (when
    requested) the orbit deviation decide `ok`.
    """
    lie = family.lie
    notes = list(lie.notes)
    forward = forward_check(family, samples=samples, seed=seed, tol=tol)
    converse = converse_check(family, params, samples=samples, seed=seed,
                              tol=tol)
    degeneracy = None
    try:
        degeneracy = degeneracy_scan(family, seed=seed, samples=samples,
                                     tol=tol)
    except ValueError as exc:
        notes.append(f"degeneracy scan skipped: {exc}")
    kinetic = None
    if (lie.r, lie.n) == (1, 2):
        kinetic = kinetic_identity_check(lie, family, samples=samples,
                                         seed=seed, tol=tol)
    else:
        notes.append("kinetic identity check skipped: needs a one-parameter "
                     "planar action")
    orbit = None
    if numeric:
        if lie.r != 1:
            notes.append("orbit integration skipped: needs a one-parameter "
                         "group")
        elif converse.status != "Match":
            notes.append("orbit integration skipped: converse check did not "
                         "produce the Lie equations")
        else:
            if x0 is None or g_end is None:
                raise ValueError("numeric orbit check needs x0 and g_end")
            orbit = numeric_orbit_check(lie, x0, g_end, step=step)
    return VerificationReport(lie=lie, family=family,
                              params=converse.params, forward=forward,
                              converse=converse, degeneracy=degeneracy,
                              kinetic=kinetic, orbit=orbit,
                              orbit_tol=orbit_tol, notes=notes)
