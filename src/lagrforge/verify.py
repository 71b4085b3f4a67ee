"""Verification that derived Lagrangians reproduce the group's Lie equations.

Both directions read the family's strong Euler-Lagrange expressions,
derived once with the free parameters symbolic.  The forward direction
substitutes the on-shell jet values into them and checks that they vanish.
The converse direction substitutes parameter values and treats the jets as
the unknowns of the resulting system, which is linear in them: (a) the Lie
values solve it when each equation vanishes on shell, and (b) they are its
only solution for the jets whose columns keep full rank in the exact row
reduction of the jet-coefficient matrix at one seeded rational point.
Diagnostics cover parameter degeneracy, a planar kinetic identity, and a
numeric orbit integration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, Equivalence,
                   Expr, NearSingularEvaluationError, Rational, Sym,
                   canonicalize, compile_numeric, differentiate, equals,
                   eval_numeric, format_expr, sample_expr, substitute)
from .solver import rref


# Longest orbit integration accepted, in steps: about 10 s for so2 on a
# 2-vCPU host.
MAX_ORBIT_STEPS = 10 ** 6


class ShapeMismatchError(ValueError):
    """A check was requested for a group shape it does not apply to."""


# ---------------------------------------------------------------------------
# Forward: the strong Euler-Lagrange expressions vanish on shell.


def forward_check(family, samples: int = EQUALS_SAMPLES,
                  seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> list:
    """Verdict grid [k][alpha]: strong E-L vanishes on shell, free
    parameters kept symbolic."""
    onshell = family.lie.onshell
    return [[equals(substitute(e, onshell), 0, samples=samples, seed=seed,
                    tol=tol) for e in row]
            for row in family.strong_el]


# ---------------------------------------------------------------------------
# Converse: the Lie values are the one solution of the E-L system.


@dataclass
class ConverseResult:
    params: dict             # free parameter name -> Fraction
    equations: list          # (k, alpha, Expr) strong E-L at the parameters
    solved: dict             # determined jet SymbolInfo -> its Lie value
    unsolved: tuple          # names of the jets without a pivot
    comparisons: list        # (determined jet name, weakest verdict of (a))
    status: str              # Match | Underdetermined | Mismatch
    witness: Optional[dict] = None  # the first equation not zero on shell


def converse_check(family, params, samples: int = EQUALS_SAMPLES,
                   seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> ConverseResult:
    """Check that the Lie values are the one solution of the E-L system.

    The system is the family's strong E-L expressions with the parameter
    values substituted.  It is linear in the jets, and the multipliers are
    Laurent monomial combinations (`ansatz_from_basis`), so each jet
    coefficient is a Laurent polynomial in the fields and group
    parameters.  (a) The Lie values solve the system when every equation
    vanishes on shell; the first that provably does not is a Mismatch.
    (b) They are its only solution for the jets whose columns have full
    rank: the exact rank of the coefficient matrix at one seeded positive
    rational point is a lower bound on its rank as a matrix of functions,
    since a minor non-zero at a point is not the zero function, and it
    equals that rank except with probability at most deg/2^31, deg the
    degree of a maximal minor with its denominators cleared (Schwartz
    1980, Zippel 1979).  A pivot jet whose reduced row involves no free
    jet is determined, and its solution is the Lie value.
    """
    lie = family.lie
    values = family.param_values(params)
    table = {p: Rational(v) for p, v in values.items()}
    named = {p.name: v for p, v in values.items()}
    equations = [(k, alpha, substitute(e, table))
                 for k, row in enumerate(family.strong_el, start=1)
                 for alpha, e in enumerate(row, start=1)]

    grade, witness = Equivalence.PROVED_EQUAL, None
    for k, alpha, e in equations:
        onshell = substitute(e, lie.onshell)
        verdict = equals(onshell, 0, samples=samples, seed=seed, tol=tol)
        if verdict == Equivalence.PROVED_UNEQUAL:
            outcome = sample_expr(onshell, samples=samples, seed=seed)
            witness = {"component": k, "field": alpha,
                       "expression": format_expr(onshell),
                       "point": outcome.witness, "magnitude": outcome.max_abs}
            break
        if verdict == Equivalence.NUMERICALLY_EQUAL:
            grade = verdict

    rng = random.Random(seed)
    point = {s: Rational(Fraction(rng.randint(1, 2 ** 31),
                                  rng.randint(1, 2 ** 31)))
             for s in lie.fields + lie.spec.params}
    jets = lie.jet_list()
    reduced, pivots = rref([[substitute(differentiate(e, J), point).value
                             for J in jets] for _, _, e in equations])
    free = [c for c in range(len(jets)) if c not in pivots]
    unsolved = tuple(jets[c].name for c in free)
    determined = [] if witness else [
        jets[c] for row, c in zip(reduced, pivots)
        if not any(f in row for f in free)]
    status = ("Mismatch" if witness else
              "Underdetermined" if unsolved else "Match")
    return ConverseResult(params=named, equations=equations,
                          solved={J: lie.onshell[J] for J in determined},
                          unsolved=unsolved,
                          comparisons=[(J.name, grade) for J in determined],
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
    the maximum Euclidean distance over all grid points.  The right-hand
    sides and the action are compiled once (`compile_numeric`), so every
    value is bit-identical to evaluating the trees with `eval_numeric`.
    """
    if lie.r != 1:
        raise ShapeMismatchError(
            f"orbit integration needs a one-parameter group; got r={lie.r}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"--step must be positive and finite, got {step}")
    if not math.isfinite(g_end):
        raise ValueError(f"--g-end must be finite, got {g_end}")
    spec = lie.spec
    p = spec.params[0]
    x0 = tuple(float(v) for v in x0)
    if len(x0) != lie.n:
        raise ValueError(f"initial state needs {lie.n} components")

    g0 = eval_numeric(spec.identity[0], {})
    total = g_end - g0
    if abs(total) / step > MAX_ORBIT_STEPS:
        raise ValueError(
            f"--g-end {g_end} and --step {step} ask for "
            f"{abs(total) / step:.3g} orbit steps; the limit is "
            f"{MAX_ORBIT_STEPS}")
    n_full = int(abs(total) // step)
    rem = abs(total) - n_full * step
    steps = n_full + 1 if rem > step * 1e-9 else n_full
    sign = 1.0 if total >= 0 else -1.0

    x = x0
    g = g0
    try:
        f = compile_numeric(
            [lie.onshell[lie.jets[a][0]] for a in range(lie.n)],
            [p.name] + [fld.name for fld in lie.fields])
        action = compile_numeric(spec.action,
                                 [p.name] + [c.name for c in spec.coords])
        deviation = _euclid(x, action(g, *x0))
        for i in range(steps):
            h = (step if i < n_full else rem) * sign
            k1 = f(g, *x)
            k2 = f(g + h / 2, *[xi + h / 2 * ki for xi, ki in zip(x, k1)])
            k3 = f(g + h / 2, *[xi + h / 2 * ki for xi, ki in zip(x, k2)])
            k4 = f(g + h, *[xi + h * ki for xi, ki in zip(x, k3)])
            x = [xi + h / 6 * (a + 2 * b + 2 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            g = g + h
            deviation = max(deviation, _euclid(x, action(g, *x0)))
        final_exact = action(g, *x0)
    except (NearSingularEvaluationError, OverflowError) as exc:
        raise ValueError(f"--g-end {g_end}: the orbit cannot be evaluated "
                         f"beyond g = {g}: {exc}") from None
    return OrbitResult(max_deviation=deviation, steps=steps,
                       final_state=tuple(x), final_exact=final_exact)


def _euclid(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# Report assembly.


@dataclass
class VerificationReport:
    lie: object
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
    return VerificationReport(lie=lie, params=converse.params,
                              forward=forward, converse=converse,
                              degeneracy=degeneracy, kinetic=kinetic,
                              orbit=orbit, orbit_tol=orbit_tol, notes=notes)
