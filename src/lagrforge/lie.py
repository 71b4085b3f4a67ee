"""Lie equations of a group action.

From a validated group action this derives the infinitesimal coefficient
matrix S, the auxiliary parameter functions u, and the constraint family
phi whose vanishing expresses the Lie equations

    X'^a_j = sum_s u^s_j(g) * S^a_s(X')

in terms of field variables X'^a (the transformed coordinates) and jet
variables X'^a_j (their derivatives along the group parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, Equivalence,
                   Product, Role, Sum, Sym, SymbolInfo, canonicalize,
                   differentiate, equals, free_symbols, substitute)

CONVENTION_NOTE = ("constraints follow the convention "
                   "phi[a][j] = X'[a]_j - sum_s u[s][j](g) * S[a][s](X'); "
                   "signs of parameter-dependent terms are consequences of it")


class ResidualCoordinatesError(ValueError):
    """Auxiliary functions came out depending on more than the parameters."""


class ConventionViolationError(ValueError):
    """Constraints failed to vanish on the action itself."""


def infinitesimal_coefficients(spec) -> list:
    """S[a][j] = d(action_a)/d(g_j) evaluated at the identity element."""
    id_map = {p: e for p, e in zip(spec.params, spec.identity)}
    out = []
    for a in spec.action:
        out.append([substitute(differentiate(a, p), id_map)
                    for p in spec.params])
    return out


def auxiliary_functions(spec) -> list:
    """u[i][j](g) = d(multiply(g, h)_i)/d(g_j) at h = inverse(g)."""
    from .dsl import _fresh_params  # shared fresh-name helper

    h = _fresh_params(spec, "h")
    g_map = {lp: Sym(p) for lp, p in zip(spec.lhs_params, spec.params)}
    g_map.update({rp: Sym(hp) for rp, hp in zip(spec.rhs_params, h)})
    inv_map = {hp: e for hp, e in zip(h, spec.inverse)}
    params = set(spec.params)
    out = []
    for m in spec.multiply:
        mg = substitute(m, g_map)
        row = []
        for p in spec.params:
            entry = substitute(differentiate(mg, p), inv_map)
            extra = free_symbols(entry) - params
            if extra:
                names = ", ".join(sorted(s.name for s in extra))
                raise ResidualCoordinatesError(
                    f"auxiliary function depends on non-parameter symbols: {names}")
            row.append(entry)
        out.append(row)
    return out


@dataclass
class LieData:
    """Derived Lie structure of one group action."""

    spec: object
    fields: tuple            # field variable symbols X'^a
    jets: tuple              # jets[a][j] = X'^a_(j+1)
    S: list                  # n x r, functions of the base coordinates
    u: list                  # r x r, functions of the parameters
    phi: list                # n x r constraint expressions
    onshell: dict            # jet symbol -> u.S(X') substitution value
    on_action: list = field(default_factory=list)  # n x r Equivalence grid
    notes: list = field(default_factory=list)

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

    The vanishing check substitutes the action formulas for the fields and
    their parameter derivatives for the jets and decides each by `equals`
    with `samples`, `seed` and `tol`; a ProvedUnequal result means the
    group data and the constraint convention disagree.
    """
    S = infinitesimal_coefficients(spec)
    u = auxiliary_functions(spec)

    declared = {s.name for s in spec.params + spec.coords}
    fields = []
    for a, c in enumerate(spec.coords, start=1):
        name = f"{c.name}'"
        while name in declared:
            name += "'"
        declared.add(name)
        fields.append(SymbolInfo(name, Role.FIELD_VARIABLE, (a,)))
    fields = tuple(fields)

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

    on_action = []
    subs = {}
    for a in range(spec.n):
        subs[fields[a]] = spec.action[a]
        for j, p in enumerate(spec.params):
            subs[jets[a][j]] = differentiate(spec.action[a], p)
    for a in range(spec.n):
        row = []
        for j in range(spec.r):
            verdict = equals(substitute(phi[a][j], subs), 0, samples=samples,
                             seed=seed, tol=tol)
            if verdict == Equivalence.PROVED_UNEQUAL:
                raise ConventionViolationError(
                    f"constraint phi[{a + 1}][{j + 1}] does not vanish on "
                    "the group action; the group data is inconsistent")
            row.append(verdict)
        on_action.append(row)

    return LieData(spec=spec, fields=fields, jets=jets, S=S, u=u, phi=phi,
                   onshell=onshell, on_action=on_action,
                   notes=[CONVENTION_NOTE])
