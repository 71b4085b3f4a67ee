"""Inverse variational problem via a multiplier ansatz.

Each Lagrangian component is posed as L_k = sum_{a,s} lambda^k_{a,s} *
phi^a_s with every multiplier an unknown linear combination of monomials
in the field variables and group parameters.  Requiring the weak
Euler-Lagrange expressions to vanish identically yields an exact rational
homogeneous linear system; its nullspace parametrizes all Lagrangians the
ansatz contains.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .expr import (Expr, Power, Product, RAT0, RAT_M1, Rational, Role, Sum,
                   Sym, SymbolInfo, canonicalize, differentiate, free_symbols,
                   monomials, polynomial_expr, substitute)

MAX_UNKNOWNS = 5000


class BasisTooLargeError(ValueError):
    """The requested monomial basis exceeds the unknown-count cap."""


class NonlinearInUnknownsError(ValueError):
    """A collected residual was not linear homogeneous in the unknowns."""


class SecondOrderJetError(ValueError):
    """The Lagrangian is not affine-linear in the jet variables."""


# ---------------------------------------------------------------------------
# Ansatz construction.


@dataclass
class MultiplierAnsatz:
    """Unknown multipliers lambda^k_{a,s} over a shared monomial basis.

    Keys (k, a, s) are 1-based: k indexes the Lagrangian component,
    a the constraint coordinate, s the constraint parameter.  Each unknown
    carries its column as its index, (column,).
    """

    lie: object
    deg_x: int
    deg_g: tuple
    basis: tuple                 # canonical monomials in fields and params
    unknowns: dict               # (k, a, s) -> tuple of SymbolInfo
    lambdas: dict                # (k, a, s) -> Expr
    columns: tuple               # all unknowns in column order

    def lagrangian_component(self, k: int) -> Expr:
        return compose_lagrangian(self.lie, self.lambdas, k)


def compose_lagrangian(lie, lambdas: dict, k: int) -> Expr:
    """L_k = sum_{a,s} lambdas[(k, a, s)] * phi^a_s."""
    return canonicalize(Sum(tuple(
        Product((lambdas[(k, a, s)], lie.phi[a - 1][s - 1]))
        for a in range(1, lie.n + 1) for s in range(1, lie.r + 1))))


def build_ansatz(lie, deg_x: int = 1, deg_g=(0, 0),
                 max_unknowns: int = MAX_UNKNOWNS) -> MultiplierAnsatz:
    """Monomial ansatz with exponents 0..deg_x per field variable and
    deg_g[0]..deg_g[1] per group parameter (the range must contain 0)."""
    lo, hi = int(deg_g[0]), int(deg_g[1])
    if deg_x < 0 or lo > 0 or hi < 0:
        raise ValueError("deg_x must be >= 0 and the parameter exponent "
                         "range must contain 0")
    # the basis has one monomial per exponent vector; check its size
    # before enumerating it
    _check_unknowns(lie.r * lie.n * lie.r * (deg_x + 1) ** lie.n
                    * (hi - lo + 1) ** lie.r, max_unknowns)
    syms = [Sym(s) for s in lie.fields + lie.spec.params]
    basis = {canonicalize(Product(tuple(
                 Power(sym, e) for sym, e in zip(syms, xexp + gexp) if e)))
             for xexp in itertools.product(range(deg_x + 1), repeat=lie.n)
             for gexp in itertools.product(range(lo, hi + 1), repeat=lie.r)}
    basis = tuple(sorted(basis, key=lambda e: e.sort_key()))
    return ansatz_from_basis(lie, basis, deg_x=deg_x, deg_g=(lo, hi),
                             max_unknowns=max_unknowns)


def ansatz_from_basis(lie, basis, deg_x=None, deg_g=None,
                      max_unknowns: int = MAX_UNKNOWNS) -> MultiplierAnsatz:
    """Ansatz over an explicit list of basis monomials.

    Each element must be a coefficient-1 monomial in the fields and group
    parameters, negative exponents allowed.  The E-L jet coefficients are
    then Laurent polynomials, which the converse check relies on.
    """
    basis = tuple(canonicalize(b) for b in basis)
    allowed = set(lie.fields + lie.spec.params)
    for b in basis:
        (coeff, pairs), *rest = monomials(b)
        if rest or coeff != 1 or any(
                not isinstance(atom, Sym) or atom.info not in allowed
                for atom, _ in pairs):
            raise ValueError(f"basis element {b} is not a monomial in the "
                             "fields and group parameters")
    r, n = lie.r, lie.n
    _check_unknowns(r * n * r * len(basis), max_unknowns)
    unknowns = {}
    lambdas = {}
    columns = []
    for k in range(1, r + 1):
        for a in range(1, n + 1):
            for s in range(1, r + 1):
                infos = tuple(
                    SymbolInfo(f"c{k}_{a}{s}_{m}", Role.ANSATZ_UNKNOWN,
                               (len(columns) + m,))
                    for m in range(len(basis)))
                unknowns[(k, a, s)] = infos
                columns.extend(infos)
                lambdas[(k, a, s)] = canonicalize(Sum(tuple(
                    Product((Sym(info), mono))
                    for info, mono in zip(infos, basis))))
    return MultiplierAnsatz(lie=lie, deg_x=deg_x, deg_g=deg_g, basis=basis,
                            unknowns=unknowns, lambdas=lambdas,
                            columns=tuple(columns))


def _check_unknowns(count: int, max_unknowns: int) -> None:
    if count > max_unknowns:
        raise BasisTooLargeError(
            f"{count} unknowns exceed the cap of {max_unknowns}; "
            "reduce the degree bounds or raise the cap")


# ---------------------------------------------------------------------------
# Euler-Lagrange expressions.


def euler_lagrange(lie, L: Expr, alpha: int) -> Expr:
    """E-L expression of one Lagrangian component for the field X'^alpha.

    dL/dX'^alpha minus the total parameter derivatives of dL/dX'^alpha_i.
    These expand through the chain rule, which keeps the jets in place;
    nothing is substituted.  Requires dL/djet to be jet-free, so the
    result is linear in the jets.
    """
    jets = set(lie.jet_list())
    terms = [differentiate(L, lie.fields[alpha - 1])]
    for i, p in enumerate(lie.spec.params):
        A = differentiate(L, lie.jets[alpha - 1][i])
        if free_symbols(A) & jets:
            raise SecondOrderJetError(
                "dL/djet depends on a jet variable; multipliers must be "
                "free of jets")
        # the total derivative of A along g_i
        terms.append(Product((RAT_M1, differentiate(A, p))))
        terms.extend(Product((RAT_M1, differentiate(A, f), Sym(jets_f[i])))
                     for f, jets_f in zip(lie.fields, lie.jets))
    return canonicalize(Sum(tuple(terms)))


def strong_el(lie, L: Expr) -> list:
    """Full E-L expressions of one Lagrangian component, one per field."""
    return [euler_lagrange(lie, L, alpha) for alpha in range(1, lie.n + 1)]


def weak_el_residual_of(lie, L: Expr, alpha: int) -> Expr:
    """Weak E-L residual of an explicit Lagrangian component: its E-L
    expression with every jet replaced by its on-shell value, which is the
    only sense in which terms are dropped."""
    return substitute(euler_lagrange(lie, L, alpha), lie.onshell)


def lambda_map_residual(lie, lambda_map: dict, k: int, alpha: int) -> Expr:
    """Residual for explicit multiplier expressions keyed by (a, s) or
    (k, a, s); useful for checking a candidate solution directly."""
    lambdas = {(k, a, s): lambda_map.get((k, a, s),
                                         lambda_map.get((a, s), RAT0))
               for a in range(1, lie.n + 1) for s in range(1, lie.r + 1)}
    return weak_el_residual_of(lie, compose_lagrangian(lie, lambdas, k), alpha)


# ---------------------------------------------------------------------------
# Exact linear system.


@dataclass
class LinearSystem:
    columns: tuple           # unknown symbols, fixed order
    rows: list               # list of Fraction lists

    @cached_property
    def reduced(self):
        """The RREF (rows, pivots), sparse rows as `rref` returns them."""
        return rref(self.rows)

    @property
    def rank(self) -> int:
        return len(self.reduced[1])


def collect_system(residuals, ansatz: MultiplierAnsatz) -> LinearSystem:
    """Turn residual expressions into exact rows over the ansatz unknowns.

    Each residual is split by monomials in everything that is not an
    unknown; each monomial contributes one homogeneous row.
    """
    ncols = len(ansatz.columns)
    rows = []
    for resid in residuals:
        monos = monomials(resid)
        if len(monos) == 1 and monos[0][0] == 0:
            continue
        grouped: dict = {}
        for coeff, pairs in monos:
            if coeff == 0:
                continue
            unknown = None
            rest = []
            for atom, n in pairs:
                if isinstance(atom, Sym) and atom.info.role == Role.ANSATZ_UNKNOWN:
                    if unknown is not None or n != 1:
                        raise NonlinearInUnknownsError(
                            "residual is not linear in the ansatz unknowns; "
                            "multipliers must enter the Lagrangian linearly")
                    unknown = atom.info
                else:
                    rest.append((atom, n))
            if unknown is None:
                raise NonlinearInUnknownsError(
                    "residual carries a term free of ansatz unknowns")
            # `monomials` sorts each monomial's atoms, so `rest` is sorted
            sig = tuple((a.sort_key(), n) for a, n in rest)
            row = grouped.setdefault(sig, [Fraction(0)] * ncols)
            row[unknown.index[0]] += coeff
        rows.extend(row for _, row in sorted(grouped.items()) if any(row))
    return LinearSystem(columns=ansatz.columns, rows=rows)


def rref(matrix):
    """Reduced row echelon form over exact rationals; returns (rows, pivots).

    Takes rows as sequences of numbers; each reduced row is a {column:
    Fraction} dict of its non-zeros, and the pivots ascend.  A column ->
    rows index, as in SymPy's `sdm_irref`, eliminates a column only from
    the rows that hold it.  Each pivot is the shortest candidate row, ties
    to the earlier, to limit fill-in; the reduced form is unique, so that
    choice never shows.
    """
    rows = [{c: Fraction(v) for c, v in enumerate(row) if v} for row in matrix]
    holders = defaultdict(set)           # column -> rows non-zero there
    for i, d in enumerate(rows):
        for c in d:
            holders[c].add(i)
    pending = set(range(len(rows)))
    reduced = []
    pivots = []
    for c in sorted(holders):            # fill-in adds no new column
        candidates = holders[c] & pending
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        pending.remove(p)
        pivot = rows[p]
        inv = 1 / pivot[c]
        for j in pivot:
            pivot[j] *= inv
        for i in holders[c] - {p}:
            d = rows[i]
            f = d[c]
            for j, v in pivot.items():
                w = d.get(j, 0) - f * v
                if w:
                    d[j] = w
                    holders[j].add(i)
                else:
                    del d[j]
                    holders[j].discard(i)
        reduced.append(pivot)
        pivots.append(c)
    return reduced, pivots


def nullspace_vectors(system: LinearSystem):
    """Basis of the exact nullspace: one sparse {column: Fraction} vector per
    free column, ascending, each with ascending keys.  Free column f's
    vector is 1 at f and -row[f] at each reduced row's pivot."""
    reduced, pivots = system.reduced
    pivot_set = set(pivots)
    vectors = {f: {f: Fraction(1)} for f in range(len(system.columns))
               if f not in pivot_set}
    for pc, row in zip(pivots, reduced):
        for f, v in row.items():
            if f != pc:
                vectors[f][pc] = -v
    return [dict(sorted(vec.items())) for vec in vectors.values()]


# ---------------------------------------------------------------------------
# Lagrangian family.


@dataclass
class FamilyMember:
    vector: dict             # {column: Fraction}, non-zeros only
    multipliers: dict        # (k, a, s) -> Expr


@dataclass
class LagrangianFamily:
    lie: object
    ansatz: MultiplierAnsatz
    system: LinearSystem
    members: list            # FamilyMember, deterministic order
    free_params: tuple       # SymbolInfo a1..ad
    multipliers: dict        # (k, a, s) -> Expr linear in the free params
    lagrangians: list        # L_k, k = 1..r, linear in the free params

    @property
    def dimension(self) -> int:
        return len(self.members)

    @cached_property
    def strong_el(self) -> list:
        """Strong E-L expressions [k][alpha] with the free parameters kept
        symbolic.  They are linear in the a_d, like the Lagrangians, so
        substituting values gives the E-L system of that specialization."""
        return [strong_el(self.lie, L) for L in self.lagrangians]

    def param_values(self, assignment) -> dict:
        """Normalize {name or SymbolInfo: number} to a full rational map."""
        values = {p: Fraction(0) for p in self.free_params}
        by_name = {p.name: p for p in self.free_params}
        for key, v in (assignment or {}).items():
            name = key.name if isinstance(key, SymbolInfo) else str(key)
            if name not in by_name:
                raise KeyError(f"unknown free parameter '{name}'")
            values[by_name[name]] = Fraction(v)
        return values

    def lagrangian_at(self, assignment) -> list:
        values = self.param_values(assignment)
        table = {p: Rational(v) for p, v in values.items()}
        return [substitute(L, table) for L in self.lagrangians]

    def multipliers_at(self, assignment) -> dict:
        values = self.param_values(assignment)
        table = {p: Rational(v) for p, v in values.items()}
        return {key: substitute(e, table) for key, e in self.multipliers.items()}

    def coordinates_of(self, lambda_map: dict):
        """Free-parameter values realizing explicit multipliers, or None.

        The multipliers must be expressible over the ansatz basis and lie
        in the span of the family members.
        """
        w = _basis_vector(self.ansatz, lambda_map)
        if w is None:
            return None
        d = len(self.members)
        # one equation per column that w or a member holds
        support = sorted(set(w).union(*(m.vector for m in self.members)))
        reduced, pivots = rref([[m.vector.get(i, 0) for m in self.members]
                                + [w.get(i, 0)] for i in support])
        if d in pivots:
            return None  # inconsistent: w outside the span
        # consistent, so the reduced right-hand side solves it exactly
        t = {pc: row.get(d, Fraction(0)) for row, pc in zip(reduced, pivots)}
        return {p.name: t.get(j, Fraction(0))
                for j, p in enumerate(self.free_params)}


def _basis_vector(ansatz: MultiplierAnsatz, lambda_map: dict):
    """Sparse {column: Fraction} coefficients of explicit multipliers over
    the ansatz columns."""
    sig_to_m = {}
    for m, mono in enumerate(ansatz.basis):
        (_, pairs), = monomials(mono)
        sig_to_m[tuple((a.sort_key(), n) for a, n in pairs)] = m
    w = defaultdict(Fraction)
    for key in ansatz.unknowns:
        expr = lambda_map.get(key, lambda_map.get(key[1:]))
        if expr is None:
            continue
        for coeff, pairs in monomials(canonicalize(expr)):
            if coeff == 0:
                continue
            sig = tuple((a.sort_key(), n) for a, n in pairs)
            m = sig_to_m.get(sig)
            if m is None:
                return None
            w[ansatz.unknowns[key][m].index[0]] += coeff
    return dict(w)


def solve_family(lie, ansatz: MultiplierAnsatz) -> LagrangianFamily:
    """Collect the weak E-L system and assemble the solution family.

    The components L_k differ only in the names of their unknowns, and
    each k owns a consecutive run of `width` columns, so the system is r
    copies of one diagonal block.  Only the block of L_1 is collected,
    reduced and kept as `family.system`; the full system's rows and rank
    are r times the block's.  Each block nullspace vector gives one member
    per component k, shifted by k * width.
    """
    L = ansatz.lagrangian_component(1)
    collected = collect_system([weak_el_residual_of(lie, L, alpha)
                                for alpha in range(1, lie.n + 1)], ansatz)
    width = lie.n * lie.r * len(ansatz.basis)
    system = LinearSystem(columns=ansatz.columns[:width],
                          rows=[row[:width] for row in collected.rows])
    # A block vector, scaled to a leading 1, is the block of one member for
    # every component k, so its multipliers are built once.
    basis = [monomials(b) for b in ansatz.basis]
    blocks = []
    for vec in nullspace_vectors(system):
        lead = next(iter(vec.values()))
        if lead != 1:
            vec = {j: v / lead for j, v in vec.items()}
        blocks.append((vec, _block_multipliers(ansatz, basis, vec)))
    members = []
    for k in range(lie.r):
        for vec, exprs in blocks:
            members.append(FamilyMember(
                vector={j + k * width: v for j, v in vec.items()},
                multipliers={key: exprs[key[1:]] if key[0] == k + 1 else RAT0
                             for key in ansatz.unknowns}))
    members.sort(key=lambda m: tuple(
        m.multipliers[key].sort_key() for key in sorted(m.multipliers)))

    free_params = tuple(SymbolInfo(f"a{d + 1}", Role.FREE_PARAMETER)
                        for d in range(len(members)))
    multipliers = {}
    for key in ansatz.unknowns:
        # members of other blocks vanish on a key of component k; a free
        # parameter sorts before every basis atom
        multipliers[key] = polynomial_expr([
            (c, ((Sym(p), 1),) + pairs)
            for p, member in zip(free_params, members)
            for c, pairs in monomials(member.multipliers[key]) if c])
    lagrangians = [compose_lagrangian(lie, multipliers, k)
                   for k in range(1, lie.r + 1)]
    return LagrangianFamily(lie=lie, ansatz=ansatz, system=system,
                            members=members, free_params=free_params,
                            multipliers=multipliers, lagrangians=lagrangians)


def _block_multipliers(ansatz: MultiplierAnsatz, basis, vec) -> dict:
    """Multipliers of one sparse block vector keyed by the slot (a, s) of
    component 1, built from `basis`, the basis elements' monomial lists.
    The i-th slot of component 1 owns the i-th run of len(basis) columns."""
    terms = {key[1:]: [] for key in ansatz.unknowns if key[0] == 1}
    slots = list(terms)
    for j, c in vec.items():
        slot, m = divmod(j, len(basis))
        terms[slots[slot]].extend((c * bc, pairs) for bc, pairs in basis[m])
    return {slot: polynomial_expr(t) for slot, t in terms.items()}
