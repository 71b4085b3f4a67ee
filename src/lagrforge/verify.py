"""Verification that derived Lagrangians reproduce the group's Lie equations.

Every check reads component 1's strong Euler-Lagrange expressions and
their on-shell forms F_alpha, which the family derives once from L_1 with
the free parameters symbolic and keeps (`family.el`, `family.residuals`).
Component k is component 1 over its own run of free parameters, so a fact
about component k is component 1's at k's values.  Verify derives one
fact of its own: component 1's jet coefficients at one seeded positive
integer point, kept per free parameter.  The expressions are linear in the
jets, so the jet coefficients are read off their monomials in one walk, with
no differentiation or substitution per jet.  They are linear in the free
parameters too, each of which leads the monomials that hold it, so
component k's values are put in by `solver._at`, with no substitution.
The forward direction checks that each F_alpha vanishes with its free
parameters symbolic, for every component at once.  The converse direction
treats the jets as the unknowns of the E-L system at given parameter
values, which is linear in them: (a) the Lie values solve it when each
equation vanishes on shell, F_alpha at component k's values; and (b) they
are its only solution for the jets whose columns keep full rank in the
exact row reduction of the jet-coefficient matrix, component 1's
coefficients per free parameter dotted with those values.  Both fail
closed: a verdict that is not one of the equal ones (`Undecided` too)
fails the report.
Diagnostics cover parameter degeneracy, a planar kinetic identity, and a
numeric orbit integration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

# `differentiate` is no longer called here, but perfbench/spans.py wraps
# verify.differentiate as a kernel leaf and requires the name
from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, Equivalence,
                   Expr, NearSingularEvaluationError, RAT0, Rational, Sym,
                   _NUMERIC_GLOBALS, _numeric_lines, _sum_code, canonicalize,
                   differentiate, equals, eval_numeric, format_expr,
                   free_symbols, sample_expr, substitute)
from .solver import _at, _by_param, rref


# Longest orbit integration accepted, in steps: about 10 s for so2 on a
# 2-vCPU host.
MAX_ORBIT_STEPS = 10 ** 6
# The verdicts that two sides are equal, strongest first.
_EQUAL = (Equivalence.PROVED_EQUAL, Equivalence.EXACTLY_EQUAL,
          Equivalence.NUMERICALLY_EQUAL)


class ShapeMismatchError(ValueError):
    """A check was requested for a group shape it does not apply to."""


# ---------------------------------------------------------------------------
# Component 1's E-L expressions at a component's values and at a point.


def _weights(family, values: dict) -> list:
    """Per component k, {component 1's free parameter: the non-zero value
    of the one at its place in k's run} and {None: 1}, from a full
    {SymbolInfo: Fraction} map: the weights `solver._at` puts component
    k's values into `family.el` and `family.residuals` with."""
    runs = family.runs
    return [{p: values[q] for p, q in zip(runs[0], run) if values[q]}
            | {None: 1} for run in runs]


def _jet_tables(family, seed: int) -> list:
    """[alpha][jet]: d `family.el`[alpha] / d jet at the positive integer
    point `seed` draws, each coordinate uniform in [1, 2^31], as {free
    parameter or None: Fraction}.

    E-L_alpha is linear in the jets, so a monomial holds at most one, to
    the first power: one walk over its monomials (`_by_param`) adds each
    that holds a jet, its coefficient times the value of the rest at the
    point, to that jet's cell under its free parameter.  The jet
    coefficients are Laurent polynomials (`ansatz_from_basis`), so the rest
    is a product of symbols' powers, and any other atom raises
    ValueError.  They are kept with the family, per seed: the degeneracy
    scan reads them once per assignment it tries."""
    cache = family._jet_tables
    tables = cache.get(seed)
    if tables is None:
        lie = family.lie
        rng = random.Random(seed)
        point = {s: rng.randint(1, 2 ** 31)
                 for s in lie.fields + lie.spec.params}
        columns = {J: c for c, J in enumerate(lie.jet_list())}
        tables = cache[seed] = []
        for e in family.el:
            row = [{} for _ in columns]
            for param, v, pairs in _by_param(e):
                at = next((i for i, (atom, _) in enumerate(pairs)
                           if isinstance(atom, Sym)
                           and atom.info in columns), None)
                if at is None:
                    continue
                for atom, n in pairs[:at] + pairs[at + 1:]:
                    if not isinstance(atom, Sym):
                        raise ValueError(
                            f"a jet coefficient holds {format_expr(atom)}"
                            "; the converse check needs Laurent "
                            "polynomials")
                    x = point[atom.info]
                    v *= x ** n if n > 0 else Fraction(1, x ** -n)
                cell = row[columns[pairs[at][0].info]]
                cell[param] = cell.get(param, 0) + v
            tables.append(row)
    return tables


# ---------------------------------------------------------------------------
# Forward: the strong Euler-Lagrange expressions vanish on shell.


def forward_check(family, samples: int = EQUALS_SAMPLES,
                  seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> list:
    """Verdict grid [k][alpha]: strong E-L vanishes on shell, free
    parameters kept symbolic.  Component k's on-shell forms are component
    1's over k's own run of free parameters, and a form vanishes whatever
    its parameters are named, so component 1's n forms are decided once
    and that row is every component's."""
    row = [equals(F, 0, samples=samples, seed=seed, tol=tol)
           for F in family.residuals]
    return [list(row) for _ in range(family.lie.r)]


# ---------------------------------------------------------------------------
# Converse: the Lie values are the one solution of the E-L system.


class ConverseResult:
    def __init__(self, params: dict, equations, solved: dict,
                 unsolved: tuple, comparisons: list, status: str,
                 witness: dict | None = None):
        self.params = params        # free parameter name -> Fraction
        # a function that makes `equations` on first read
        self._equations = equations
        self.solved = solved        # determined jet SymbolInfo -> Lie value
        self.unsolved = unsolved    # names of the jets without a pivot
        # (determined jet name, weakest verdict of (a))
        self.comparisons = comparisons
        self.status = status        # Match | Underdetermined | Mismatch
        self.witness = witness      # the first equation not zero on shell

    @cached_property
    def equations(self) -> list:
        """(k, alpha, Expr): strong E-L at the parameters."""
        return self._equations()


def converse_check(family, params, samples: int = EQUALS_SAMPLES,
                   seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> ConverseResult:
    """Check that the Lie values are the one solution of the E-L system.

    The system is the family's strong E-L expressions at the parameter
    values, equation (k, alpha) being component 1's alpha-th at component
    k's values.  It is linear in the jets, and the multipliers are Laurent
    monomial combinations (`ansatz_from_basis`), so each jet coefficient
    is a Laurent polynomial in the fields and group parameters.
    (a) The Lie values solve the system when every equation vanishes on
    shell: component 1's on-shell form F_alpha at component k's values
    (`solver._at`); an F_alpha that is 0 vanishes at every value.  The
    first that is not decided equal, `ProvedUnequal` or `Undecided`, is a
    Mismatch; the comparisons carry the weakest equal verdict seen.
    (b) They are its only solution for the jets whose columns have full
    rank: the exact rank of the coefficient matrix at one seeded point,
    each field and group parameter a uniform integer in [1, 2^31], is a
    lower bound on its rank as a matrix of functions, since a minor
    non-zero at a point is not the zero function.  It equals that rank
    except with probability at most deg/2^31, deg the degree of a maximal
    minor times the monomial that clears its denominators, which is
    non-zero at a positive point (Schwartz 1980, Zippel 1979).  The
    matrix is component 1's coefficients at that point, read off its E-L
    monomials once per family and kept per free parameter, dotted with
    each component's values.  A pivot jet whose reduced row involves no
    free jet is determined, and its solution is the Lie value.
    The equations themselves, component 1's E-L expressions at each
    component's values (`solver._at`), are built only when `equations` is
    first read, which only the JSON report does.
    """
    lie = family.lie
    values = family.param_values(params)
    weights = _weights(family, values)

    grade, witness = Equivalence.PROVED_EQUAL, None
    for k, alpha, onshell in ((k, alpha, _at(F, w))
                              for k, w in enumerate(weights, start=1)
                              for alpha, F in enumerate(family.residuals,
                                                        start=1)
                              if F != RAT0):
        verdict = equals(onshell, 0, samples=samples, seed=seed, tol=tol)
        if verdict not in _EQUAL:
            outcome = sample_expr(onshell, samples=samples, seed=seed)
            witness = {"component": k, "field": alpha,
                       "expression": format_expr(onshell),
                       "point": outcome.witness, "magnitude": outcome.max_abs}
            break
        grade = max(grade, verdict, key=_EQUAL.index)

    jets = lie.jet_list()
    reduced, pivots = rref(_jet_matrix(family, weights, seed))
    free = [c for c in range(len(jets)) if c not in pivots]
    unsolved = tuple(jets[c].name for c in free)
    determined = [] if witness else [
        jets[c] for row, c in zip(reduced, pivots)
        if not any(f in row for f in free)]
    status = ("Mismatch" if witness else
              "Underdetermined" if unsolved else "Match")
    return ConverseResult(params={p.name: v for p, v in values.items()},
                          equations=lambda: [
                              (k, alpha, _at(e, w))
                              for k, w in enumerate(weights, start=1)
                              for alpha, e in enumerate(family.el, start=1)],
                          solved={J: lie.onshell[J] for J in determined},
                          unsolved=unsolved,
                          comparisons=[(J.name, grade) for J in determined],
                          status=status, witness=witness)


def _jet_matrix(family, weights: list, seed: int) -> list:
    """The E-L system's jet-coefficient matrix at the point `seed` draws,
    rows (k, alpha): component 1's coefficients per free parameter, dotted
    with component k's weights, in exact arithmetic."""
    tables = _jet_tables(family, seed)
    return [[sum(v * w[p] for p, v in cell.items() if p in w) for cell in row]
            for w in weights for row in tables]


# ---------------------------------------------------------------------------
# Degeneracy scan.


class DegeneracyEntry:
    def __init__(self, label: str, assignment: dict, status: str):
        self.label = label
        self.assignment = assignment  # parameter name -> Fraction
        self.status = status


class DegeneracyReport:
    def __init__(self, entries: list, degenerate: list):
        self.entries = entries
        self.degenerate = degenerate  # labels with status != Match


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


class KineticIdentity:
    def __init__(self, verdict: Equivalence, momentum_onshell: Expr,
                 energy_onshell: Expr, special_lagrangian: Expr,
                 family_match: Equivalence | None = None):
        self.verdict = verdict
        # X'^1 jet2 - jet1 X'^2 after substitution
        self.momentum_onshell = momentum_onshell
        self.energy_onshell = energy_onshell  # jet1^2 + jet2^2, substituted
        # the momentum-minus-radius form
        self.special_lagrangian = special_lagrangian
        self.family_match = family_match


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


class OrbitResult:
    def __init__(self, max_deviation: float, steps: int, final_state: tuple,
                 final_exact: tuple):
        self.max_deviation = max_deviation
        self.steps = steps
        self.final_state = final_state
        self.final_exact = final_exact


def numeric_orbit_check(lie, x0, g_end: float, step: float = 1e-3) -> OrbitResult:
    """Integrate the Lie equations with the classical fourth-order
    one-step method and compare against the closed-form action.

    The integration runs in the group parameter from its identity value to
    g_end at fixed step (the final step may be shorter); the deviation is
    the maximum Euclidean distance over all grid points.  An orbit that
    takes no step checks nothing and raises ValueError.  The whole loop is
    compiled once into straight-line float code (`_compile_orbit`), whose
    values are bit-identical to evaluating the trees with `eval_numeric`.
    """
    if lie.r != 1:
        raise ShapeMismatchError(
            f"orbit integration needs a one-parameter group; got r={lie.r}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"--step must be positive and finite, got {step}")
    if not math.isfinite(g_end):
        raise ValueError(f"--g-end must be finite, got {g_end}")
    x0 = tuple(float(v) for v in x0)
    if len(x0) != lie.n:
        raise ValueError(f"initial state needs {lie.n} components")

    g0 = eval_numeric(lie.spec.identity[0], {})
    total = g_end - g0
    if abs(total) / step > MAX_ORBIT_STEPS:
        raise ValueError(
            f"--g-end {g_end} and --step {step} ask for "
            f"{abs(total) / step:.3g} orbit steps; the limit is "
            f"{MAX_ORBIT_STEPS}")
    n_full = int(abs(total) // step)
    rem = abs(total) - n_full * step
    steps = n_full + 1 if rem > step * 1e-9 else n_full
    if steps == 0:
        raise ValueError(f"--g-end {g_end} leaves no orbit step from the "
                         f"identity value {g0}")
    sign = 1.0 if total >= 0 else -1.0

    g = g0
    try:
        orbit = _compile_orbit(lie)
        g, deviation, x, final_exact = orbit(g0, step, rem, sign, n_full,
                                             steps, *x0)
    except (NearSingularEvaluationError, OverflowError) as exc:
        g = getattr(exc, "orbit_g", g)   # g0 if compiling overflowed
        raise ValueError(f"--g-end {g_end}: the orbit cannot be evaluated "
                         f"beyond g = {g}: {exc}") from None
    return OrbitResult(max_deviation=deviation, steps=steps,
                       final_state=x, final_exact=final_exact)


def _compile_orbit(lie):
    """The whole fixed-step orbit as one straight-line float function.

    Each step inlines the right-hand sides four times (`_numeric_lines`),
    updates the state and g, evaluates the action at the new g and keeps
    the largest squared Euclidean deviation.  Every float operation is the
    one that integrating over `compile_numeric` functions does, in the
    same order, so every value is bit-identical to that loop: sums of
    three or more terms stay `sum()` calls (compensated on Python 3.12+),
    and a sum of two is `0.0 + a + b`, which `sum()` gives too.  A value is
    computed once where that loop recomputes it: the nodes over constants
    and the initial state, and the products' leading runs of such factors,
    before the loop; the step sizes h, h / 2 and h / 6 once for the full
    steps and once for the last; g + h / 2 once a step; and the square
    root of the largest squared deviation once, on return, since sqrt is
    correctly rounded and monotone.  The function returns
    (g, deviation, state, action at g); an evaluation that fails re-raises
    with the g it was reached from as `orbit_g`.
    """
    spec = lie.spec
    p = spec.params[0].name
    rhs = [lie.onshell[lie.jets[a][0]] for a in range(lie.n)]
    reads_g = any(s.name == p for e in rhs for s in free_symbols(e))
    # the initial state, the state, and the arguments of stages 2, 3 and 4
    u, x, y, z, w = ([f"{c}{j}" for j in range(lie.n)] for c in "uxyzw")
    fixed = {Sym(c): ui for c, ui in zip(spec.coords, u)}
    hoisted = []

    def stage(prefix, g, state):
        fields = {fld.name: s for fld, s in zip(lie.fields, state)}
        return _numeric_lines(rhs, {p: g, **fields}, prefix, fixed, hoisted)

    def shifted(state, k, h):
        return [f"{si} = {xi} + {h} * {ki}"
                for si, xi, ki in zip(state, x, k)]

    lines1, k1 = stage("k1_", "g", x)
    lines2, k2 = stage("k2_", "gm", y)
    lines3, k3 = stage("k3_", "gm", z)
    lines4, k4 = stage("k4_", "ge", w)
    action, exact = _numeric_lines(spec.action, {p: "g"}, "e", fixed, hoisted)

    def distance(state):
        """`d2`, the squared distance from the state to the action of g on
        the initial state."""
        squares = [f"({s} - {e}) ** 2" for s, e in zip(state, exact)]
        return [*action, f"d2 = {_sum_code(squares)}"]

    step_lines = [
        *lines1, *shifted(y, k1, "h2"), *(["gm = g + h2"] if reads_g else []),
        *lines2, *shifted(z, k2, "h2"),
        *lines3, *shifted(w, k3, "h"), *(["ge = g + h"] if reads_g else []),
        *lines4,
        f"{', '.join(x)} = " + ", ".join(
            f"{xi} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)),
        "g = ge" if reads_g else "g = g + h",
        *distance(x), "if d2 > dev2: dev2 = d2"]
    source = "\n".join([
        f"def orbit(g, step, rem, sign, n_full, steps, {', '.join(u)}):",
        "    try:",
        *("        " + line for line in [*hoisted, *distance(u)]),
        "        dev2 = d2",
        f"        {', '.join(x)} = {', '.join(u)}",
        "        for size, count in ((step, n_full), (rem, steps - n_full)):",
        "            h = size * sign",
        "            h2 = h / 2",
        "            h6 = h / 6",
        "            for _ in range(count):",
        *("                " + line for line in step_lines),
        f"        return g, _sqrt(dev2), ({''.join(xi + ', ' for xi in x)}), "
        f"({''.join(e + ', ' for e in exact)})",
        "    except (_NearSingular, OverflowError) as exc:",
        "        exc.orbit_g = g",
        "        raise"])
    namespace = dict(_NUMERIC_GLOBALS, _sqrt=math.sqrt,
                     _NearSingular=NearSingularEvaluationError)
    exec(compile(source, "<orbit>", "exec"), namespace)
    return namespace["orbit"]


# ---------------------------------------------------------------------------
# Report assembly.


class VerificationReport:
    def __init__(self, lie, params: dict, forward: list,
                 converse: ConverseResult,
                 degeneracy: DegeneracyReport | None = None,
                 kinetic: KineticIdentity | None = None,
                 orbit: OrbitResult | None = None,
                 orbit_tol: float = 1e-6, notes: list | None = None):
        self.lie = lie
        self.params = params
        self.forward = forward  # [k][alpha] Equivalence grid
        self.converse = converse
        self.degeneracy = degeneracy
        self.kinetic = kinetic
        self.orbit = orbit
        self.orbit_tol = orbit_tol
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        if any(v not in _EQUAL for row in self.forward for v in row):
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
