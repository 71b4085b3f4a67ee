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
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .expr import (Expr, RAT0, RAT_M1, Rational, Role, Sym, SymbolInfo,
                   canonicalize, differentiate, free_symbols, _number,
                   _poly_mul, _sig, monomials, polynomial_expr,
                   product_monomials, substitute)

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
    a the constraint coordinate, s the constraint parameter.  Only the
    basis is stored: the i-th key owns the columns i*|basis| ..
    (i+1)*|basis| - 1, one per basis monomial.
    """

    lie: object
    deg_x: int
    deg_g: tuple
    basis: tuple                 # canonical monomials in fields and params

    @cached_property
    def unknowns(self) -> dict:
        """(k, a, s) -> the unknowns c{k}_{a}{s}_m of its columns, each
        carrying its column as its index, (column,).  Only the expression
        path reads them."""
        r, size = self.lie.r, len(self.basis)
        keys = itertools.product(range(1, r + 1), range(1, self.lie.n + 1),
                                 range(1, r + 1))
        return {(k, a, s): tuple(
                    SymbolInfo(f"c{k}_{a}{s}_{m}", Role.ANSATZ_UNKNOWN,
                               (i * size + m,)) for m in range(size))
                for i, (k, a, s) in enumerate(keys)}

    @cached_property
    def lambdas(self) -> dict:
        """(k, a, s) -> the multiplier sum_m c_m * b_m as an expression.
        The solve never builds them; `lagrangian_component` reads them."""
        basis_pairs = [monomials(b)[0][1] for b in self.basis]
        # an unknown sorts before every basis atom
        return {key: polynomial_expr([
                    (1, ((Sym(info), 1),) + pairs)
                    for info, pairs in zip(infos, basis_pairs)])
                for key, infos in self.unknowns.items()}

    def lagrangian_component(self, k: int) -> Expr:
        return compose_lagrangian(self.lie, self.lambdas, k)


def compose_lagrangian(lie, lambdas: dict, k: int) -> Expr:
    """L_k = sum_{a,s} lambdas[(k, a, s)] * phi^a_s, each product multiplied
    out on monomial lists and the whole collected once."""
    return polynomial_expr([
        m for a in range(1, lie.n + 1) for s in range(1, lie.r + 1)
        for m in product_monomials((lambdas[(k, a, s)],
                                    lie.phi[a - 1][s - 1]))])


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
    # the symbols and their exponent ranges in sort-key order, the order
    # of a canonical monomial's atoms
    syms, spans = zip(*sorted(
        [(Sym(v), range(deg_x + 1)) for v in lie.fields]
        + [(Sym(p), range(lo, hi + 1)) for p in lie.spec.params],
        key=lambda atom: atom[0].sort_key()))
    basis = sorted((polynomial_expr([(1, tuple(
                        (sym, e) for sym, e in zip(syms, exps) if e))])
                    for exps in itertools.product(*spans)), key=Expr.sort_key)
    return MultiplierAnsatz(lie, deg_x, (lo, hi), tuple(basis))


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
    if len(set(basis)) < len(basis):
        # it would add members with every multiplier 0 to the family
        raise ValueError("the basis repeats a monomial")
    _check_unknowns(lie.r * lie.n * lie.r * len(basis), max_unknowns)
    return MultiplierAnsatz(lie=lie, deg_x=deg_x, deg_g=deg_g, basis=basis)


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
    monos = monomials(differentiate(L, lie.fields[alpha - 1]))
    for i, p in enumerate(lie.spec.params):
        A = differentiate(L, lie.jets[alpha - 1][i])
        _check_jet_free(A, jets)
        # minus the total derivative of A along g_i
        monos.extend((-c, pairs)
                     for c, pairs in monomials(differentiate(A, p)))
        for f, jets_f in zip(lie.fields, lie.jets):
            monos.extend(product_monomials(
                (RAT_M1, differentiate(A, f), Sym(jets_f[i]))))
    return polynomial_expr(monos)


def _check_jet_free(e: Expr, jets: set) -> None:
    """Raise SecondOrderJetError if `e` holds a jet.  Reads the monomials of
    `e`, so a sum builds no term nodes; only sine, cosine and inverse-sum
    atoms are walked."""
    for _, pairs in monomials(e):
        for atom, _ in pairs:
            if isinstance(atom, Sym):
                held = atom.info in jets
            else:
                held = not free_symbols(atom).isdisjoint(jets)
            if held:
                raise SecondOrderJetError(
                    "dL/djet depends on a jet variable; multipliers must be "
                    "free of jets")


def strong_el(lie, L: Expr) -> list:
    """Full E-L expressions of one Lagrangian component, one per field."""
    return [euler_lagrange(lie, L, alpha) for alpha in range(1, lie.n + 1)]


def weak_el_residual_of(lie, L, alpha: int):
    """Weak E-L residual for the field X'^alpha: the E-L expression with
    every jet replaced by its on-shell value, which is the only sense in
    which terms are dropped.

    `L` is a Lagrangian expression, whose residual is returned as one, or
    a `MultiplierAnsatz`, for the residual of its L_1 = sum c_{a,s,m} *
    b_m * phi^a_s.  That residual is linear in the unknowns c and is
    returned as its coefficient table {signature: {column: coefficient}},
    a signature being the (atom sort key, exponent) pairs of a monomial
    in everything but the unknowns.  With xi^b_s the on-shell value of
    the jet X'^b_s, the column of c_{a,s,m} is

        b_m * dphi^a_s/dX'^alpha
          - [a = alpha] * (db_m/dg_s + sum_b xi^b_s * db_m/dX'^b)

    as dL/dX'^alpha_s is lambda_{alpha,s}, the terms dlambda/dX' * phi
    vanish on shell and dphi/dX' is free of jets.
    """
    if isinstance(L, MultiplierAnsatz):
        return _column_table(lie, L.basis, alpha)
    return substitute(euler_lagrange(lie, L, alpha), lie.onshell)


def _column_table(lie, basis, alpha: int) -> dict:
    """The coefficient table of the residual for X'^alpha of L_1, written
    column by column.  dphi/dX'^alpha and xi are split into monomials once
    each, and db_m is b_m with one exponent lowered, so no unknown, no L_1
    and no residual expression is built."""
    field = lie.fields[alpha - 1]
    n = lie.n
    # the sort keys of the fields, then of the group parameters
    keys = [Sym(v).sort_key() for v in lie.fields + lie.spec.params]
    sigs = [_sig(monomials(b)[0][1]) for b in basis]
    table = {}
    j = 0                                # column of c_{a,s,m}
    for a in range(1, n + 1):
        for s in range(1, lie.r + 1):
            dphi = _sig_monomials(differentiate(lie.phi[a - 1][s - 1], field))
            # db/dg_s, then db/dX'^b times xi^b_s, both negated: each a
            # sort key to lower and the monomials that multiply the result
            drift = [(keys[n + s - 1], [(-1, ())])] + [
                (keys[b], [(-c, x) for c, x in _sig_monomials(
                    lie.onshell[lie.jets[b][s - 1]])])
                for b in range(n)] if a == alpha else []
            for sig in sigs:
                terms = [(c, _sig_mul(sig, d)) for c, d in dphi]
                for key, monos in drift:
                    e, rest = _lowered(sig, key)
                    if e:
                        terms.extend((e * c, _sig_mul(rest, x))
                                     for c, x in monos)
                for c, mono in terms:
                    cells = table.get(mono)
                    if cells is None:
                        table[mono] = {j: c}
                    else:
                        cells[j] = cells.get(j, 0) + c
                j += 1
    return table


def _sig_monomials(e: Expr) -> list:
    """(coefficient, signature) of each non-zero monomial of `e`."""
    return [(c, _sig(pairs)) for c, pairs in monomials(e) if c]


def _sig_mul(s1, s2):
    """The signature of the product of two monomials."""
    if not s1 or not s2:
        return s1 or s2
    merged = dict(s1)
    for k, e in s2:
        merged[k] = merged.get(k, 0) + e
    return tuple(sorted(ke for ke in merged.items() if ke[1]))


def _lowered(sig, key):
    """(e, signature of the rest) where `sig` holds the atom of `key` to
    the power e, so that its derivative there is e times the rest with
    that power lowered; (0, None) where it does not hold it."""
    for i, (k, e) in enumerate(sig):
        if k == key:
            return e, sig[:i] + (((k, e - 1),) if e != 1 else ()) + sig[i + 1:]
    return 0, None


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
    columns: range           # the column indices
    rows: list               # sparse {column: int or Fraction} rows, or
                             # dense ones with int 0 in the zero cells

    @cached_property
    def reduced(self):
        """The RREF (rows, pivots), sparse rows as `rref` returns them."""
        return rref(self.rows)

    @property
    def rank(self) -> int:
        return len(self.reduced[1])


def collect_system(residuals, ansatz: MultiplierAnsatz) -> LinearSystem:
    """Exact homogeneous rows over the ansatz unknowns, one per monomial
    signature of each residual, in signature order.

    A residual is either a coefficient table, as `weak_el_residual_of`
    gives for the ansatz, or an expression in the unknowns, first split by
    the monomials in everything that is not an unknown.  Tables give
    sparse rows over the block of L_1; any expression makes every row
    dense over all the ansatz columns.
    """
    dense = not all(isinstance(resid, dict) for resid in residuals)
    lie = ansatz.lie
    width = lie.n * lie.r * len(ansatz.basis)
    ncols = lie.r * width if dense else width
    rows = []
    for resid in residuals:
        table = resid if isinstance(resid, dict) else _unknown_table(resid)
        for sig in sorted(table):
            # a table's columns are written in ascending order, so are
            # each row's keys
            cells = {j: _number(v) for j, v in table[sig].items() if v}
            if not cells:
                continue
            if dense:
                row = [0] * ncols
                for j, v in cells.items():
                    row[j] = v
                cells = row
            rows.append(cells)
    return LinearSystem(columns=range(ncols), rows=rows)


def _unknown_table(resid: Expr) -> dict:
    """The coefficient table {signature: {column: coefficient}} of an
    expression linear homogeneous in the ansatz unknowns."""
    table = {}
    for coeff, pairs in monomials(resid):
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
        cells = table.setdefault(_sig(rest), {})
        j = unknown.index[0]
        cells[j] = cells.get(j, 0) + coeff
    return table


def rref(matrix):
    """Reduced row echelon form over exact rationals; returns (rows, pivots).

    Takes rows as sequences of numbers or as {column: number} dicts; each
    reduced row is a {column: Fraction} dict of its non-zeros, and the
    pivots ascend.  The elimination is fraction-free, as SymPy's
    `sdm_rref_den`: each row is scaled to integers with no common factor,
    and a row that a pivot row eliminates from is multiplied through
    rather than divided, then has its content removed again; a pivot row
    is divided by its pivot only at the end.  A column -> rows index, as
    in SymPy's `sdm_irref`, eliminates a column only from the rows that
    hold it.  Each pivot is the shortest candidate row, ties to the
    earlier, to limit fill-in; the reduced form is unique, so that choice
    never shows.
    """
    rows = [_primitive(row.items() if isinstance(row, dict) else
                       itertools.compress(enumerate(row), row))
            for row in matrix]
    holders = defaultdict(set)           # column -> rows non-zero there
    for i, d in enumerate(rows):
        for c in d:
            holders[c].add(i)
    pending = set(range(len(rows)))
    pivots = []
    reduced = []                         # the pivot rows, by pivot
    for c in sorted(holders):            # fill-in adds no new column
        candidates = holders[c] & pending
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        pending.remove(p)
        pivot = rows[p]
        reduced.append(pivot)
        pv = pivot[c]
        for i in holders[c] - {p}:
            # d <- (pv * d - d[c] * pivot) / g, clearing column c
            d = rows[i]
            g = math.gcd(pv, d[c])
            f, h = pv // g, d[c] // g
            if f != 1:
                for j in d:
                    d[j] *= f
            for j, v in pivot.items():
                w = d.get(j, 0) - h * v
                if w:
                    d[j] = w
                    holders[j].add(i)
                else:
                    del d[j]
                    holders[j].discard(i)
            g = math.gcd(*d.values())
            if g != 1:
                for j in d:
                    d[j] //= g
        pivots.append(c)
    return [{j: Fraction(v, d[c]) for j, v in d.items()}
            for d, c in zip(reduced, pivots)], pivots


def _primitive(cells) -> dict:
    """The non-zero (column, number) `cells` as a row of integers with no
    common factor."""
    row = {c: v for c, v in cells if v}
    den = math.lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


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
class LagrangianFamily:
    lie: object
    ansatz: MultiplierAnsatz
    system: LinearSystem
    members: list            # {column: Fraction} vectors, a_d's at d - 1
    free_params: tuple       # SymbolInfo a1..ad
    multipliers: dict        # (k, a, s) -> Expr linear in the free params
    lagrangians: list        # L_k, k = 1..r, linear in the free params
    twins: list              # k = 2..r: {a_d of component 1: its twin in k}

    @property
    def dimension(self) -> int:
        return len(self.members)

    @cached_property
    def strong_el(self) -> list:
        """Strong E-L expressions [k][alpha] with the free parameters kept
        symbolic.  They are linear in the a_d, like the Lagrangians, so
        substituting values gives the E-L system of that specialization.

        A member of component k and its twin in component 1 come from one
        block vector, so L_k is L_1 with each a_d renamed to its twin, and
        so are its E-L expressions: only those of L_1 are derived."""
        first = strong_el(self.lie, self.lagrangians[0])
        return [first] + [[_rename_params(e, twin) for e in first]
                          for twin in self.twins]

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
        support = sorted(set(w).union(*self.members))
        reduced, pivots = rref([[m.get(i, 0) for m in self.members]
                                + [w.get(i, 0)] for i in support])
        if d in pivots:
            return None  # inconsistent: w outside the span
        # consistent, so the reduced right-hand side solves it exactly
        t = {pc: row.get(d, Fraction(0)) for row, pc in zip(reduced, pivots)}
        return {p.name: t.get(j, Fraction(0))
                for j, p in enumerate(self.free_params)}


def _rename_params(e: Expr, twin: dict) -> Expr:
    """`e`, linear in the free parameters, with each renamed by `twin`.  A
    free parameter sorts before every other atom, so it is the first atom
    of each monomial."""
    syms = {p: Sym(q) for p, q in twin.items()}
    return polynomial_expr([(c, ((syms[pairs[0][0].info], 1),) + pairs[1:])
                            for c, pairs in monomials(e) if c])


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


def solve_family(lie, ansatz: MultiplierAnsatz) -> LagrangianFamily:
    """Collect the weak E-L system and assemble the solution family.

    The components L_k differ only in the names of their unknowns, and
    each k owns a consecutive run of `width` columns, so the system is r
    copies of one diagonal block.  Only the block of L_1 is collected,
    its sparse rows written column by column from the residuals' closed
    form, reduced and kept as `family.system`; the full system's rows and
    rank are r times the block's.  Each block nullspace vector gives one
    member per component k, shifted by k * width, and fixes that member's
    multipliers and its Lagrangian L_b = sum_slot lambda_b * phi_slot
    whatever k is; both are built once a vector, and component k's
    multipliers and L_k collect them under the free parameters of its
    members.
    """
    system = collect_system([weak_el_residual_of(lie, ansatz, alpha)
                             for alpha in range(1, lie.n + 1)], ansatz)
    width = len(system.columns)
    basis = [monomials(b) for b in ansatz.basis]
    slots = [(a, s) for a in range(1, lie.n + 1)
             for s in range(1, lie.r + 1)]
    phis = [monomials(lie.phi[a - 1][s - 1]) for a, s in slots]
    vectors = []
    for vec in nullspace_vectors(system):
        lead = next(iter(vec.values()))
        vectors.append(vec if lead == 1 else
                       {j: v / lead for j, v in vec.items()})
    exprs = [_block_multipliers(slots, basis, vec) for vec in vectors]
    order = sorted(range(len(vectors)), key=lambda b: tuple(
        exprs[b][slot].sort_key() for slot in slots))
    vectors, exprs = [vectors[b] for b in order], [exprs[b] for b in order]
    # each L_b is multiplied out on the monomial lists, never by
    # canonicalizing a product tree: that could cancel a sum against an
    # inverse-sum atom of phi, which no family multiplier, holding the free
    # parameters, ever met
    block_L = [polynomial_expr([m for slot, phi in zip(slots, phis)
                                for m in _poly_mul(monomials(lam[slot]), phi)])
               for lam in exprs]
    # The members run by component from the last: a_1..a_d are the sorted
    # block vectors shifted into component r, the next d into component
    # r - 1, and so on.  That is the order of the members' own sort keys,
    # each its block's padded with RAT0's in the other components' slots:
    # a lead-normalized block's first non-zero multiplier, which distinct
    # basis monomials guarantee, sorts after RAT0, so every member of
    # component k + 1 sorts before every member of component k.
    d, r = len(vectors), lie.r
    free_params = tuple(SymbolInfo(f"a{i + 1}", Role.FREE_PARAMETER)
                        for i in range(r * d))
    members = [{j + k * width: v for j, v in vec.items()}
               for k in reversed(range(r)) for vec in vectors]
    # the free parameters of components 1..r, a run of d by block vector
    runs = [free_params[i * d:(i + 1) * d] for i in reversed(range(r))]
    twins = [dict(zip(runs[0], run)) for run in runs[1:]]
    multipliers = {}
    lagrangians = []
    for k, run in enumerate(runs):
        # the run's free parameters, each a monomial's first atom, as it
        # sorts before every basis atom
        heads = [((Sym(p), 1),) for p in run]
        for slot in slots:
            multipliers[(k + 1,) + slot] = _weighted_sum(
                heads, [lam[slot] for lam in exprs])
        lagrangians.append(_weighted_sum(heads, block_L))
    return LagrangianFamily(lie=lie, ansatz=ansatz, system=system,
                            members=members, free_params=free_params,
                            multipliers=multipliers, lagrangians=lagrangians,
                            twins=twins)


def _weighted_sum(heads, exprs) -> Expr:
    """sum_b head_b * exprs[b], collected once; each head is the leading
    (atom, exponent) pairs of every monomial it multiplies."""
    return polynomial_expr([(c, head + pairs)
                            for head, e in zip(heads, exprs)
                            for c, pairs in monomials(e)])


def _block_multipliers(slots, basis, vec) -> dict:
    """Multipliers of one sparse block vector keyed by the slot (a, s) of
    component 1, built from `basis`, the basis elements' monomial lists.
    The i-th of the ascending `slots` owns the i-th run of len(basis)
    columns."""
    terms = {slot: [] for slot in slots}
    for j, c in vec.items():
        slot, m = divmod(j, len(basis))
        terms[slots[slot]].extend((c * bc, pairs) for bc, pairs in basis[m])
    return {slot: polynomial_expr(t) for slot, t in terms.items()}
