"""Lie equations of a group action.

From a validated group action this derives the infinitesimal coefficient
matrix S, the auxiliary parameter functions u, and the constraint family
phi whose vanishing expresses the Lie equations

    X'^a_j = sum_s u^s_j(g) * S^a_s(X')

in terms of field variables X'^a (the transformed coordinates) and jet
variables X'^a_j (their derivatives along the group parameters).
"""

from __future__ import annotations

from .dsl import _fresh_params
# `equals` is no longer called here, but perfbench/spans.py wraps lie.equals
# as a kernel leaf and requires the name
from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, RAT0,
                   Equivalence, Product, Role, Sum, Sym, SymbolInfo,
                   _fresh_name, canonicalize, decide, differentiate, equals,
                   free_symbols, substitute)

CONVENTION_NOTE = ("constraints follow the convention "
                   "phi[a][j] = X'[a]_j - sum_s u[s][j](g) * S[a][s](X'); "
                   "signs of parameter-dependent terms are consequences of it")


class ResidualCoordinatesError(ValueError):
    """Auxiliary functions came out depending on more than the parameters."""


class ConventionViolationError(ValueError):
    """Constraints failed to vanish on the action itself, or sampling them
    there aborted."""


def infinitesimal_coefficients(spec) -> list:
    """S[a][j] = d(action_a)/d(g_j) evaluated at the identity element."""
    return _at_identity(spec, _jacobian(spec))


def _jacobian(spec) -> list:
    return [[differentiate(a, p) for p in spec.params] for a in spec.action]


def _at_identity(spec, jacobian: list) -> list:
    id_map = {p: e for p, e in zip(spec.params, spec.identity)}
    return [[substitute(d, id_map) for d in row] for row in jacobian]


def auxiliary_functions(spec) -> list:
    """u[i][j](g) = d(multiply(g, h)_i)/d(g_j) at h = inverse(g)."""
    h = _fresh_params(spec, "h")
    at_inverse = dict(zip(h, spec.inverse))
    params = set(spec.params)
    out = []
    for mg in spec.compose(tuple(map(Sym, spec.params)), h):
        row = []
        for p in spec.params:
            entry = substitute(differentiate(mg, p), at_inverse)
            extra = free_symbols(entry) - params
            if extra:
                names = ", ".join(sorted(s.name for s in extra))
                raise ResidualCoordinatesError(
                    f"auxiliary function depends on non-parameter symbols: {names}")
            row.append(entry)
        out.append(row)
    return out


class LieData:
    """Derived Lie structure of one group action."""

    def __init__(self, spec, fields: tuple, jets: tuple, S: list, u: list,
                 phi: list, onshell: dict, on_action: list | None = None,
                 notes: list | None = None):
        self.spec = spec
        self.fields = fields    # field variable symbols X'^a
        self.jets = jets        # jets[a][j] = X'^a_(j+1)
        self.S = S              # n x r, functions of the base coordinates
        self.u = u              # r x r, functions of the parameters
        self.phi = phi          # n x r constraint expressions
        self.onshell = onshell  # jet symbol -> u.S(X') substitution value
        # the n x r grid of Equivalence verdicts
        self.on_action = [] if on_action is None else on_action
        self.notes = [] if notes is None else notes

    @property
    def r(self) -> int:
        return self.spec.r

    @property
    def n(self) -> int:
        return self.spec.n

    def jet_list(self):
        return [j for row in self.jets for j in row]


def constraints(spec, samples: int = EQUALS_SAMPLES, seed: int = DEFAULT_SEED,
                tol: float = EQUALS_TOL) -> LieData:
    """Derive S, u, and the constraints phi; verify phi vanishes on the action.

    The check evaluates phi with the fields at the action's values and the
    jets at its parameter derivatives', as `dsl.validate_axioms` evaluates
    a law: `ExactlyEqual` when phi is 0 at EXACT_POINTS seeded points mod
    MODULUS, else, on a Clash, `NumericallyEqual` within `tol` at `samples`
    float points from `seed`, each value relative to its size, as
    `expr.relative_gap` gives it.  A phi that does not vanish means the
    group data and the constraint convention disagree.
    """
    jacobian = _jacobian(spec)
    S = _at_identity(spec, jacobian)
    u = auxiliary_functions(spec)

    taken = {s.name for s in spec.params + spec.coords}
    fields = tuple(SymbolInfo(_fresh_name(f"{c.name}'", taken, "'"),
                              Role.FIELD_VARIABLE, (a,))
                   for a, c in enumerate(spec.coords, start=1))

    jets = []
    for a, f in enumerate(fields, start=1):
        row = []
        for j, p in enumerate(spec.params, start=1):
            name = f"{f.name}_{p.name}"
            row.append(SymbolInfo(name, Role.JET_VARIABLE, (a, j)))
        jets.append(tuple(row))
    jets = tuple(jets)

    field_map = {c: Sym(f) for c, f in zip(spec.coords, fields)}
    S_field = [[substitute(entry, field_map) for entry in row] for row in S]

    phi = []
    onshell = {}
    for a in range(spec.n):
        row = []
        for j in range(spec.r):
            value = canonicalize(Sum(tuple(
                Product((u[s][j], S_field[a][s])) for s in range(spec.r))))
            onshell[jets[a][j]] = value
            row.append(Sym(jets[a][j]) - value)
        phi.append(row)

    lie = LieData(spec=spec, fields=fields, jets=jets, S=S, u=u, phi=phi,
                  onshell=onshell, notes=[CONVENTION_NOTE])
    lie.on_action = _on_action(lie, jacobian, samples, seed, tol)
    return lie


def _on_action(lie, jacobian: list, samples: int, seed: int,
               tol: float) -> list:
    """The grid of verdicts that phi vanishes on the action, each entry one
    group of `expr.decide`."""
    spec = lie.spec
    # the fields and jets take the values of the action and its derivatives
    names = lie.fields + tuple(lie.jet_list())
    exprs = spec.action + tuple(d for row in jacobian for d in row)
    flat = [e for row in lie.phi for e in row]

    def sides(evaluate, env, wanted):
        env.update(zip(names, evaluate(exprs, env)))
        *values, zero = evaluate([flat[k] for k in wanted] + [RAT0], env)
        return [[(v, zero)] for v in values]

    _, outcomes = decide(
        sides, spec.params + spec.coords,
        {spec.params[j] for j in spec.angles()}, seed, [seed] * len(flat),
        samples, tol,
        lambda _: (f"a constraint of {spec.name} on its action",) * 2)
    verdicts = [verdict for verdict, _ in outcomes]
    for k, verdict in enumerate(verdicts):
        if verdict in (Equivalence.EXACTLY_EQUAL,
                       Equivalence.NUMERICALLY_EQUAL):
            continue
        entry = f"constraint phi[{k // spec.r + 1}][{k % spec.r + 1}]"
        raise ConventionViolationError(
            f"{entry} could not be decided on the group action: float "
            "sampling aborted" if verdict is Equivalence.UNDECIDED else
            f"{entry} does not vanish on the group action; the group data "
            "is inconsistent")
    return [verdicts[a * spec.r:][:spec.r] for a in range(spec.n)]
