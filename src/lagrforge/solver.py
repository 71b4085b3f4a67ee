"""Inverse variational problem via a multiplier ansatz.

Each Lagrangian component is posed as L_k = sum_{a,s} lambda^k_{a,s} *
phi^a_s with every multiplier an unknown linear combination of monomials
in the field variables and group parameters.  Requiring the weak
Euler-Lagrange expressions to vanish identically yields an exact rational
homogeneous linear system; its nullspace parametrizes all Lagrangians the
ansatz contains.  The solution, a `LagrangianFamily`, keeps what is derived
from it as cached views: the multipliers and Lagrangians, component 1's
strong E-L expressions (`el`) and their on-shell forms (`residuals`), which
the checks in `verify` read, and every component's E-L (`strong_el`),
whose first row is `el`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import cached_property

from .expr import (Expr, RAT0, Role, Sym, SymbolInfo, canonicalize,
                   differentiate, free_symbols, _fresh_name, _norm_pairs,
                   _number, _poly_mul, _sig, _sorted_expr, monomial_derivative,
                   monomials, polynomial_expr, product_monomials, substitute)

MAX_UNKNOWNS = 5000


class BasisTooLargeError(ValueError):
    """The requested monomial basis exceeds the unknown-count cap."""


class NonlinearInUnknownsError(ValueError):
    """A collected residual was not linear homogeneous in the unknowns."""


class SecondOrderJetError(ValueError):
    """The Lagrangian is not affine-linear in the jet variables."""


# ---------------------------------------------------------------------------
# Ansatz construction.


class MultiplierAnsatz:
    """Unknown multipliers lambda^k_{a,s} over a shared monomial basis.

    Keys (k, a, s) are 1-based: k indexes the Lagrangian component,
    a the constraint coordinate, s the constraint parameter.  Only the
    basis is stored: the i-th key owns the columns i*|basis| ..
    (i+1)*|basis| - 1, one per basis monomial.
    """

    def __init__(self, lie, deg_x: int, deg_g: tuple, basis: tuple):
        self.lie = lie
        self.deg_x = deg_x
        self.deg_g = deg_g
        self.basis = basis  # canonical monomials in fields and params

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
    # each monomial's pairs are already normalized and sorted
    basis = sorted((_sorted_expr(((1, tuple(
                        (sym, e) for sym, e in zip(syms, exps) if e)),))
                    for exps in itertools.product(*spans)), key=Expr.sort_key)
    return MultiplierAnsatz(lie, deg_x, (lo, hi), tuple(basis))


def ansatz_from_basis(lie, basis) -> MultiplierAnsatz:
    """Ansatz over an explicit list of basis monomials, with no degree
    bounds (its `deg_x` and `deg_g` are None).

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
    _check_unknowns(lie.r * lie.n * lie.r * len(basis), MAX_UNKNOWNS)
    return MultiplierAnsatz(lie, None, None, basis)


def _check_unknowns(count: int, max_unknowns: int) -> None:
    if count > max_unknowns:
        raise BasisTooLargeError(
            f"{count} unknowns exceed the cap of {max_unknowns}; "
            "reduce the degree bounds or raise the cap")


# ---------------------------------------------------------------------------
# Euler-Lagrange expressions.


def strong_el(lie, L: Expr) -> list:
    """Full E-L expressions of one Lagrangian component, one per field:
    dL/dX'^alpha minus the total parameter derivatives of dL/dX'^alpha_i.

    All of them come from one walk over the monomials of L.  Each monomial
    is differentiated by the fields it holds, into those fields'
    expressions.  One that holds the jet X'^alpha_i, times a jet-free rest
    A, also adds to the alpha-th minus dA/dg_i and minus dA/dX'^f * X'^f_i
    for each field f: the total derivative of A along g_i by the chain
    rule, which keeps the jets in place; nothing is substituted.  dL/djet
    must be free of jets, so that the result is linear in the jets: a
    monomial that holds a jet in any other way raises SecondOrderJetError.
    """
    fields, params = lie.fields, lie.spec.params
    jets = {J: (alpha, i) for alpha, row in enumerate(lie.jets)
            for i, J in enumerate(row)}
    jet_pairs = [[((Sym(J), 1),) for J in row] for row in lie.jets]
    out = [[] for _ in fields]
    for coeff, pairs in monomials(L):
        held = set()    # the symbols of the monomial but its jet
        at = None       # position of its jet among the pairs
        for i, (atom, n) in enumerate(pairs):
            if isinstance(atom, Sym):
                if atom.info not in jets:
                    held.add(atom.info)
                    continue
                if at is not None or n != 1:
                    raise SecondOrderJetError(_SECOND_ORDER)
                at = i
                continue
            syms = free_symbols(atom)
            if not jets.keys().isdisjoint(syms):
                raise SecondOrderJetError(_SECOND_ORDER)
            held |= syms
        for f, el in zip(fields, out):
            if f in held:
                el.extend(monomial_derivative(coeff, pairs, f))
        if at is None:
            continue
        alpha, i = jets[pairs[at][0].info]
        rest, el = pairs[:at] + pairs[at + 1:], out[alpha]
        if params[i] in held:
            el.extend((-c, q) for c, q in
                      monomial_derivative(coeff, rest, params[i]))
        for f, row in zip(fields, jet_pairs):
            if f in held:
                el.extend((-c, _norm_pairs(q + row[i])) for c, q in
                          monomial_derivative(coeff, rest, f))
    return [polynomial_expr(monos) for monos in out]


_SECOND_ORDER = ("dL/djet depends on a jet variable; multipliers must be "
                 "free of jets")


def euler_lagrange(lie, L: Expr, alpha: int) -> Expr:
    """E-L expression of one Lagrangian component for the field X'^alpha."""
    return strong_el(lie, L)[alpha - 1]


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
    and no residual expression is built.

    Monomials are packed exponent codes.  The atoms of the basis, of each
    dphi/dX'^alpha and of each xi get W-bit fields in sort-key order, each
    holding its exponent plus the bias 2^(W-1); the basis codes carry the
    bias and the codes of the factors they meet do not, so a product is
    one integer addition, and b_m's exponent of an atom, one shift and
    mask.  With M the largest |exponent| among those inputs, a product
    or a lowered exponent times xi is at most 2M + 1 in size, so W is one
    bit more than 2M + 1 takes and no field overflows into the next.  Each
    row's code is turned back into its signature once, at the end."""
    field = lie.fields[alpha - 1]
    n = lie.n
    dphis = [_sig_monomials(differentiate(lie.phi[a - 1][s - 1], field))
             for a, s in _slots(lie)]
    xis = [[_sig_monomials(lie.onshell[row[s]]) for row in lie.jets]
           for s in range(lie.r)]
    sigs = [_sig(monomials(b)[0][1]) for b in basis]
    inputs = sigs + [sig for monos in itertools.chain(dphis, *xis)
                     for _, sig in monos]
    atoms = sorted({k for sig in inputs for k, _ in sig})
    width = (2 * max((abs(e) for sig in inputs for _, e in sig), default=0)
             + 1).bit_length() + 1
    bias, mask = 1 << (width - 1), (1 << width) - 1
    shift = {k: i * width for i, k in enumerate(atoms)}

    def packed(sig):
        return sum(e << shift[k] for k, e in sig)

    one = sum(bias << at for at in shift.values())   # the code of 1
    codes = [one + packed(sig) for sig in sigs]
    # the sort keys of the fields, then of the group parameters
    keys = [Sym(v).sort_key() for v in lie.fields + lie.spec.params]
    table = {}
    j = 0                                # column of c_{a,s,m}
    for (a, s), dphi in zip(_slots(lie), dphis):
        dphi = [(c, packed(d)) for c, d in dphi]
        # db/dg_s, then db/dX'^b times xi^b_s, both negated: each the
        # place of the atom to lower and the monomials that multiply the
        # result; an atom no input holds is left out
        drift = [(shift[key], 1 << shift[key], monos)
                 for key, monos in [(keys[n + s - 1], [(-1, 0)])] + [
                     (keys[b], [(-c, packed(x)) for c, x in xis[s - 1][b]])
                     for b in range(n)] if key in shift] if a == alpha else []
        for code in codes:
            terms = [(code + d, c) for c, d in dphi]
            for at, unit, monos in drift:
                e = ((code >> at) & mask) - bias
                if e:
                    rest = code - unit
                    terms += [(rest + x, e * c) for c, x in monos]
            for mono, c in terms:
                cells = table.get(mono)
                if cells is None:
                    table[mono] = {j: c}
                else:
                    cells[j] = cells.get(j, 0) + c
            j += 1

    def signature(code):
        sig = []
        for k in atoms:
            e = (code & mask) - bias
            if e:
                sig.append((k, e))
            code >>= width
        return tuple(sig)

    return {signature(code): cells for code, cells in table.items()}


def _sig_monomials(e: Expr) -> list:
    """(coefficient, signature) of each non-zero monomial of `e`."""
    return [(c, _sig(pairs)) for c, pairs in monomials(e) if c]


# ---------------------------------------------------------------------------
# Exact linear system.


class LinearSystem:
    def __init__(self, columns: range, rows: list):
        self.columns = columns  # the column indices
        # sparse {column: int or Fraction} rows, or dense ones with int 0
        # in the zero cells
        self.rows = rows

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
    is divided by its pivot only at the end.  Most rows of the weak E-L
    block hold one cell, which is scaled straight to +-1, and a row of
    ints takes no lcm of denominators.  A column -> rows index, as
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
        if len(candidates) == 1:
            p, = candidates
        else:
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
    # a Fraction where the pivot is 1 too: the nullspace divides by it
    return [{j: Fraction(v) for j, v in d.items()} if d[c] == 1 else
            {j: Fraction(v, d[c]) for j, v in d.items()}
            for d, c in zip(reduced, pivots)], pivots


def _primitive(cells) -> dict:
    """The non-zero (column, number) `cells` as a row of integers with no
    common factor."""
    row = {c: v for c, v in cells if v}
    if len(row) == 1:
        return {c: 1 if v > 0 else -1 for c, v in row.items()}
    if not all(type(v) is int for v in row.values()):
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator)
               for c, v in row.items()}
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


class LagrangianFamily:
    """The solution family, kept linear in its free parameters.

    Each sorted block nullspace vector b fixes its multipliers lambda_b
    and its Lagrangian L_b = sum_slot lambda_b * phi_slot, whatever the
    component; component k's multipliers and L_k are the sums
    sum_b a_b * lambda_b and sum_b a_b * L_b over its run of free
    parameters (`runs`), built on first read.
    """

    def __init__(self, lie, ansatz: MultiplierAnsatz, system: LinearSystem,
                 blocks: list, block_multipliers: list,
                 block_lagrangians: list, free_params: tuple):
        self.lie = lie
        self.ansatz = ansatz
        self.system = system
        self.blocks = blocks  # sorted lead-normalized block vectors
        # per block vector, (a, s) -> its multiplier
        self.block_multipliers = block_multipliers
        self.block_lagrangians = block_lagrangians  # per block vector, L_b
        self.free_params = free_params  # SymbolInfo a1..ad
        self._jet_tables = {}  # seed -> `verify._jet_tables` of `el`

    @property
    def dimension(self) -> int:
        return len(self.free_params)

    @property
    def runs(self) -> list:
        """The free parameters of components 1..r, each a run of d by block
        vector: a_1..a_d weight the block vectors in component r, the next
        d in component r - 1, and so on."""
        d, r = len(self.blocks), self.lie.r
        return [self.free_params[(r - k) * d:(r - k + 1) * d]
                for k in range(1, r + 1)]

    @cached_property
    def members(self) -> list:
        """The {column: Fraction} vectors of the full system, a_i's at i - 1:
        each block vector shifted into its component.

        That is the order of the members' own sort keys, each its block's
        padded with RAT0's in the other components' slots: a
        lead-normalized block's first non-zero multiplier, which distinct
        basis monomials guarantee, sorts after RAT0, so every member of
        component k + 1 sorts before every member of component k."""
        width = len(self.system.columns)
        return [{j + k * width: v for j, v in vec.items()}
                for k in reversed(range(self.lie.r)) for vec in self.blocks]

    @cached_property
    def multipliers(self) -> dict:
        """(k, a, s) -> sum_b a_b * lambda_b[(a, s)] over component k's run,
        linear in the free parameters."""
        return {(k,) + slot: _weighted_sum(
                    run, [lam[slot] for lam in self.block_multipliers])
                for k, run in enumerate(self.runs, start=1)
                for slot in _slots(self.lie)}

    @cached_property
    def lagrangians(self) -> list:
        """L_k = sum_b a_b * L_b over component k's run, k = 1..r."""
        return [_weighted_sum(run, self.block_lagrangians)
                for run in self.runs]

    @cached_property
    def el(self) -> list:
        """Component 1's strong E-L expressions [alpha], the free parameters
        kept symbolic, derived from L_1 = sum_b a_b * L_b alone: reading
        them builds no other L_k.  The E-L operator is linear, so component
        k's are these over k's own run of free parameters."""
        return strong_el(self.lie, _weighted_sum(self.runs[0],
                                                 self.block_lagrangians))

    @cached_property
    def residuals(self) -> list:
        """Component 1's weak E-L residuals F_alpha: `el` with the on-shell
        jet values substituted, the free parameters kept symbolic."""
        return [substitute(e, self.lie.onshell) for e in self.el]

    @cached_property
    def strong_el(self) -> list:
        """Strong E-L expressions [k][alpha] with the free parameters kept
        symbolic: component 1's are `el`, each other's derived from its own
        Lagrangian.  They are linear in the a_d, like the Lagrangians, so
        substituting values gives the E-L system of that specialization."""
        return [self.el, *(strong_el(self.lie, L)
                           for L in self.lagrangians[1:])]

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
        """The L_k at the assigned values, the others 0 (`_at`)."""
        values = self.param_values(assignment)
        return [_at(L, values | {None: 1}) for L in self.lagrangians]

    def multipliers_at(self, assignment) -> dict:
        """The multipliers at the assigned values, the others 0 (`_at`)."""
        values = self.param_values(assignment)
        return {key: _at(e, values | {None: 1})
                for key, e in self.multipliers.items()}


def solve_family(lie, ansatz: MultiplierAnsatz) -> LagrangianFamily:
    """Collect the weak E-L system and solve it for the family.

    The components L_k differ only in the names of their unknowns, and
    each k owns a consecutive run of `width` columns, so the system is r
    copies of one diagonal block.  Only the block of L_1 is collected,
    its sparse rows written column by column from the residuals' closed
    form, reduced and kept as `family.system`; the full system's rows and
    rank are r times the block's.  Each block nullspace vector gives one
    member per component k, shifted by k * width, and fixes that member's
    multipliers and its Lagrangian L_b whatever k is; both are built once
    a vector, and the sums over the free parameters are left to the
    family.  A vector holds few columns, so L_b multiplies out only the
    slots (a, s) that hold one of them: every other multiplier is 0.
    """
    system = collect_system([weak_el_residual_of(lie, ansatz, alpha)
                             for alpha in range(1, lie.n + 1)], ansatz)
    slots = _slots(lie)
    phis = [monomials(lie.phi[a - 1][s - 1]) for a, s in slots]
    basis = _basis_terms(ansatz.basis)
    blocks = []
    for vec in nullspace_vectors(system):
        lead = next(iter(vec.values()))
        if lead != 1:
            vec = {j: v / lead for j, v in vec.items()}
        blocks.append((*_block_multipliers(slots, basis, vec), vec))
    blocks.sort(key=lambda block: block[0])
    multipliers = [lam for _, lam, _ in blocks]
    # each L_b is multiplied out on the monomial lists, never by
    # canonicalizing a product tree: that could cancel a sum against an
    # inverse-sum atom of phi, which no family multiplier, holding the free
    # parameters, ever met.  An empty slot's multiplier is RAT0 itself
    lagrangians = [polynomial_expr([m for slot, phi in zip(slots, phis)
                                    if lam[slot] is not RAT0
                                    for m in _poly_mul(monomials(lam[slot]),
                                                       phi)])
                   for lam in multipliers]
    return LagrangianFamily(lie=lie, ansatz=ansatz, system=system,
                            blocks=[vec for _, _, vec in blocks],
                            block_multipliers=multipliers,
                            block_lagrangians=lagrangians,
                            free_params=_free_params(lie,
                                                     lie.r * len(blocks)))


def _slots(lie) -> list:
    """The slots (a, s) of a component's multipliers, ascending."""
    return [(a, s) for a in range(1, lie.n + 1) for s in range(1, lie.r + 1)]


def _free_params(lie, count: int) -> tuple:
    """a1..a<count>, each named apart from the group's own symbols with a
    `_` suffix."""
    taken = {s.name for s in (*lie.spec.params, *lie.spec.coords,
                              *lie.fields, *itertools.chain(*lie.jets))}
    return tuple(SymbolInfo(_fresh_name(f"a{i + 1}", taken, "_"),
                            Role.FREE_PARAMETER) for i in range(count))


def _weighted_sum(params, exprs) -> Expr:
    """sum_b params[b] * exprs[b], collected once.  A free parameter sorts
    before every other atom, so it leads each monomial."""
    heads = [((Sym(p), 1),) for p in params]
    return polynomial_expr([(c, head + pairs)
                            for head, e in zip(heads, exprs)
                            for c, pairs in monomials(e)])


def _by_param(e: Expr):
    """(free parameter or None, coefficient, the other pairs) of each
    non-zero monomial of `e`, which is linear in the free parameters: the
    walk that reads a sum `_weighted_sum` built.  A free parameter's role
    sorts first, so it leads each monomial that holds it, and its role
    tells it."""
    free = Role.FREE_PARAMETER
    for c, pairs in monomials(e):
        if not c:
            continue
        head = pairs[0][0] if pairs else None
        if isinstance(head, Sym) and head.info.role is free:
            yield head.info, c, pairs[1:]
        else:
            yield None, c, pairs


def _at(e: Expr, weights: dict) -> Expr:
    """`e`, linear in the free parameters, with each at its weight, the
    ones `weights` leaves out at 0 and the monomials free of them times
    weights[None]: `substitute` of the values, with no product multiplied
    out."""
    return polynomial_expr([(c * weights[p], rest)
                            for p, c, rest in _by_param(e)
                            if p in weights])


def _basis_terms(basis) -> list:
    """(place in signature order, pairs) of each basis element: a
    multiplier's monomials run in signature order."""
    pairs = [monomials(b)[0][1] for b in basis]
    order = sorted(range(len(basis)), key=lambda m: _sig(pairs[m]))
    place = {m: i for i, m in enumerate(order)}
    return [(place[m], p) for m, p in enumerate(pairs)]


def _block_multipliers(slots, basis, vec) -> tuple:
    """(sort key, multipliers) of one sparse block vector, keyed by the slot
    (a, s) of component 1, from `_basis_terms`.  The i-th of the ascending
    `slots` owns the i-th run of len(basis) columns.  The key is the
    tuple of the multipliers' sort keys; a sum's is made with no term
    node."""
    terms = [[] for _ in slots]
    for j, c in vec.items():
        slot, m = divmod(j, len(basis))
        terms[slot].append((basis[m], c))
    lams = {}
    for slot, run in zip(slots, terms):
        run.sort(key=lambda term: term[0][0])
        lams[slot] = _sorted_expr(tuple((_number(c), pairs)
                                        for (_, pairs), c in run))
    return tuple(lam.sort_key() for lam in lams.values()), lams
