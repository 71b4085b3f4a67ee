"""Multiplier ansatz, exact linear system, and the Lagrangian family."""

import copy
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import lagrforge as lf
from lagrforge import (BasisTooLargeError, NonlinearInUnknownsError, Power,
                       Product, Rational, Role, Sum, Sym, canonicalize, cli,
                       format_expr, solver)
from lagrforge.expr import (MODULUS, _subst, circle_point, exact_value,
                            polynomial_expr)
from lagrforge.printing import latex_expr, prefix_expr
from lagrforge.solver import (LinearSystem, compose_lagrangian, euler_lagrange,
                              rref)
from reference import coordinates_of, lambda_map_residual


def _unknowns(ansatz):
    """The ansatz unknowns, key by key."""
    return [info for infos in ansatz.unknowns.values() for info in infos]


def test_build_ansatz_so2(so2_lie):
    ansatz = lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0))
    assert [prefix_expr(b) for b in ansatz.basis] == \
        ["1", "X1'", "X2'", "(* X1' X2')"]
    assert len(_unknowns(ansatz)) == 8
    assert list(ansatz.unknowns) == [(1, 1, 1), (1, 2, 1)]
    names = [c.name for c in _unknowns(ansatz)]
    assert names[:4] == ["c1_11_0", "c1_11_1", "c1_11_2", "c1_11_3"]
    assert all(c.role == Role.ANSATZ_UNKNOWN for c in _unknowns(ansatz))
    L = ansatz.lagrangian_component(1)
    assert lf.free_symbols(L) >= set(_unknowns(ansatz))


@pytest.mark.parametrize("name, deg_g",
                         [("so2", (0, 0)), ("affine1", (-1, 1))])
def test_unknowns_carry_their_column(name, deg_g, so2_lie, affine_lie):
    # key by key, the unknowns fill the columns in order
    lie = so2_lie if name == "so2" else affine_lie
    ansatz = lf.build_ansatz(lie, deg_x=1, deg_g=deg_g)
    unknowns = _unknowns(ansatz)
    assert len(unknowns) == lie.r * lie.n * lie.r * len(ansatz.basis)
    assert all(c.index == (i,) for i, c in enumerate(unknowns))


def _tree_basis(lie, deg_x, deg_g):
    """The monomial basis as one canonicalized Product of Powers per
    exponent vector, sorted."""
    syms = [Sym(s) for s in lie.fields + lie.spec.params]
    basis = {canonicalize(Product(tuple(
                 Power(sym, e) for sym, e in zip(syms, xexp + gexp) if e)))
             for xexp in itertools.product(range(deg_x + 1), repeat=lie.n)
             for gexp in itertools.product(range(deg_g[0], deg_g[1] + 1),
                                           repeat=lie.r)}
    return sorted(basis, key=lambda e: e.sort_key())


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 4, (0, 0)), ("affine1", 0, (0, 0)), ("affine1", 2, (-2, 2)),
    ("perfbench/groups/se2.grp", 2, (0, 0)), ("scale3", 1, (-1, 1))])
def test_build_ansatz_basis_matches_tree_reference(source, deg_x, deg_g):
    # each basis monomial is made straight from its (symbol, exponent)
    # pairs; a Product of Powers canonicalized gives the same, in order
    lie = _lie_of(source)
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    reference = _tree_basis(lie, deg_x, deg_g)
    assert len(ansatz.basis) == (deg_x + 1) ** lie.n \
        * (deg_g[1] - deg_g[0] + 1) ** lie.r
    assert [b.sort_key() for b in ansatz.basis] == \
        [b.sort_key() for b in reference]
    assert [prefix_expr(b) for b in ansatz.basis] == \
        [prefix_expr(b) for b in reference]


@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("affine1", 1, (-1, 1)), ("perfbench/groups/se2.grp", 1, (0, 0))])
def test_solve_family_builds_no_unknown(source, deg_x, deg_g):
    # the solve works on the basis and column indices alone: the unknown
    # symbols and the multiplier sums are left unbuilt
    lie = _lie_of(source)
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    family = lf.solve_family(lie, ansatz)
    assert family.dimension > 0
    assert "unknowns" not in vars(ansatz)
    assert "lambdas" not in vars(ansatz)


# Each format's family builder, as the CLI calls it.
FAMILY_BUILDERS = {
    "json": cli._family_payload,
    "text": cli._family_text,
    "latex": lambda family: cli._latex_lines(
        cli._family_rows(family, cli.LATEX)),
}


@pytest.mark.hash_order
@pytest.mark.parametrize("fmt", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("affine1", 1, (-1, 1)), ("perfbench/groups/se2.grp", 1, (0, 0))])
def test_solve_builds_no_weighted_sum(source, deg_x, deg_g, fmt):
    # every format splices the family from each block vector's texts: the
    # sums over the free parameters, and the members, are left unbuilt
    lie = _lie_of(source)
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    assert FAMILY_BUILDERS[fmt](family)
    payload = cli._family_payload(family)
    assert payload["family"]["dimension"] == family.dimension > 0
    assert "multipliers" not in vars(family)
    assert "lagrangians" not in vars(family)
    assert "members" not in vars(family)


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("so2", 4, (0, 0)), ("affine1", 1, (-1, 0)),
    ("affine1", 2, (-1, 0)), ("affine1", 1, (-1, 1)), ("affine1", 3, (-2, 2)),
    ("perfbench/groups/se2.grp", 1, (0, 0)),
    ("perfbench/groups/se2.grp", 2, (0, 0)), ("scale3", 1, (-1, 1)),
    ("so2", 0, (0, 0)), ("affine1", 0, (0, 0)), ("affine1", 0, (-1, 0))])
def test_spliced_family_matches_each_printer(source, deg_x, deg_g):
    # each component's sum is spliced from its block vectors' texts in the
    # order of their free parameters' names (a10 before a2), each name
    # right after the coefficient; the sums built on first read print the
    # same through each format's printer.  The last three rungs hold an
    # empty family (every slot 0), zero slots, and sums whose term is a
    # bare a_d.
    lie = _lie_of(source)
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    for fmt, printer in [(cli.PREFIX, prefix_expr), (cli.INFIX, format_expr),
                         (cli.LATEX, latex_expr)]:
        (_, multipliers), (_, lagrangians) = cli._family_rows(family, fmt)
        assert [text for _, _, text in multipliers] == \
            [printer(e) for _, e in sorted(family.multipliers.items())]
        assert [text for _, _, text in lagrangians] == \
            [printer(L) for L in family.lagrangians]
    payload = cli._family_payload(family)["family"]
    assert payload["multipliers"] == {
        f"lambda[{k}][{a}][{s}]": prefix_expr(e)
        for (k, a, s), e in family.multipliers.items()}
    assert payload["lagrangians"] == [prefix_expr(L)
                                      for L in family.lagrangians]


def test_build_ansatz_validation(so2_lie):
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=-1)
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(1, 2))  # range misses 0
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, -1))
    with pytest.raises(BasisTooLargeError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0), max_unknowns=4)


def test_ansatz_from_basis_checks_the_cap(so2_lie, monkeypatch):
    # so2 has r = 1 and n = 2, so a basis of two monomials makes 4 unknowns
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    monkeypatch.setattr(solver, "MAX_UNKNOWNS", 3)
    with pytest.raises(BasisTooLargeError, match="exceed the cap of 3"):
        lf.ansatz_from_basis(so2_lie, [f1, f2])
    monkeypatch.setattr(solver, "MAX_UNKNOWNS", 4)
    assert len(lf.ansatz_from_basis(so2_lie, [f1, f2]).basis) == 2


@pytest.mark.parametrize("deg_x, deg_g", [(10 ** 6, (0, 0)),
                                          (1, (-10 ** 6, 0))])
def test_basis_size_checked_before_enumeration(so2_lie, deg_x, deg_g):
    # the cap is checked on the basis size, (deg_x + 1)^n (hi - lo + 1)^r,
    # before a single monomial is built
    with pytest.raises(BasisTooLargeError, match="exceed the cap of 5000"):
        lf.build_ansatz(so2_lie, deg_x=deg_x, deg_g=deg_g)


def test_restricted_system_rank(so2_lie):
    # multipliers linear in the fields: lambda_1 = a1 X'1 + a2 X'2,
    # lambda_2 = b1 X'1 + b2 X'2; the system forces b1 = -a2, b2 = a1
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    ansatz = lf.ansatz_from_basis(so2_lie, [f1, f2])
    family = lf.solve_family(so2_lie, ansatz)
    assert so2_lie.r * len(family.system.columns) == 4
    assert len(_unknowns(ansatz)) == 4
    assert family.system.rank == 2
    assert family.dimension == 2
    reduced, pivots = family.system.reduced
    assert (reduced, pivots) == rref([[0, 1, 1, 0], [-1, 0, 0, 1]])
    assert (reduced, pivots) == ([{0: 1, 3: -1}, {1: 1, 2: 1}], [0, 1])


def test_basis_must_be_monomials_in_fields_and_params(so2_lie):
    # anything else could make a jet coefficient of the E-L system other
    # than a Laurent polynomial, which the converse check evaluates exactly
    f1 = Sym(so2_lie.fields[0])
    g = Sym(so2_lie.spec.params[0])
    jet = Sym(so2_lie.jets[0][0])
    for element in (lf.Sin(g), jet, (f1 + g) ** -1):
        with pytest.raises(ValueError, match="is not a monomial"):
            lf.ansatz_from_basis(so2_lie, [f1, element])
    assert len(lf.ansatz_from_basis(so2_lie, [f1 ** 2 * g ** -3]).basis) == 1


def test_basis_must_not_repeat_a_monomial(affine_lie):
    # a repeated element would add members whose multipliers are all 0,
    # each with L_k = 0, to the family
    f1, f2 = (Sym(f) for f in affine_lie.fields)
    with pytest.raises(ValueError, match="repeats a monomial"):
        lf.ansatz_from_basis(affine_lie, [f1, f2, f2 * f1 / f2])


def test_nonlinear_residual_rejected(so2_lie):
    ansatz = lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0))
    c0, c1 = (Sym(c) for c in ansatz.unknowns[(1, 1, 1)][:2])
    with pytest.raises(NonlinearInUnknownsError):
        lf.collect_system([canonicalize(c0 * c1)], ansatz)


def test_so2_family(so2_family):
    family = so2_family
    assert len(family.system.rows) == 12
    assert family.system.rank == 6
    assert family.dimension == 2
    assert [p.name for p in family.free_params] == ["a1", "a2"]
    assert all(p.role == Role.FREE_PARAMETER for p in family.free_params)

    lie = family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    # a_d = 1 and every other parameter 0 gives member d's multipliers
    assert family.multipliers_at({"a1": 1}) == {(1, 1, 1): f1, (1, 2, 1): f2}
    assert family.multipliers_at({"a2": 1}) == {(1, 1, 1): f2,
                                                (1, 2, 1): -f1}
    # members are normalized: leading coefficient +1
    for member in family.members:
        assert list(member) == sorted(member)
        assert 0 not in member.values()
        assert next(iter(member.values())) == 1

    assert str(family.lagrangians[0]) == \
        ("a1*X1'*X1'_g + a1*X2'*X2'_g - a2*X1'*X2'_g + a2*X1'^2"
         " + a2*X2'*X1'_g + a2*X2'^2")


def test_param_values(so2_family):
    a1, a2 = so2_family.free_params
    full = so2_family.param_values({"a2": Fraction(1, 3)})
    assert full == {a1: Fraction(0), a2: Fraction(1, 3)}
    # SymbolInfo keys work too
    assert so2_family.param_values({a1: 2})[a1] == Fraction(2)
    with pytest.raises(KeyError):
        so2_family.param_values({"zz": 1})


def test_lagrangian_at(so2_family):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    j1, j2 = Sym(lie.jets[0][0]), Sym(lie.jets[1][0])
    L = so2_family.lagrangian_at({"a1": 0, "a2": 1})[0]
    assert L == -f1 * j2 + f1 ** 2 + f2 * j1 + f2 ** 2
    mult = so2_family.multipliers_at({"a1": 1})
    assert mult[(1, 1, 1)] == f1 and mult[(1, 2, 1)] == f2


def test_weak_el_residual(so2_lie, so2_family):
    f1 = Sym(so2_lie.fields[0])
    # a field-only Lagrangian is not weakly null
    assert lf.weak_el_residual_of(so2_lie, f1 ** 2, 1) == 2 * f1
    # every family member is, with the parameters kept symbolic
    for alpha in (1, 2):
        assert lf.weak_el_residual_of(
            so2_lie, so2_family.lagrangians[0], alpha) == Rational(0)


@pytest.mark.parametrize("name", ["so2", "affine1"])
def test_weak_residual_is_strong_el_on_shell(name, so2_family, affine_family):
    # weak_el_residual_of and strong_el share one Euler-Lagrange operator
    family = {"so2": so2_family, "affine1": affine_family}[name]
    lie = family.lie
    for L in family.lagrangians + [family.ansatz.lagrangian_component(1)]:
        strong = lf.strong_el(lie, L)
        for alpha in range(1, lie.n + 1):
            assert lf.weak_el_residual_of(lie, L, alpha) == \
                lf.substitute(strong[alpha - 1], lie.onshell)


def test_weak_el_residual_rejects_second_order(so2_lie):
    # dL/djet holds a jet as a factor, or inside a sine
    j1 = Sym(so2_lie.jets[0][0])
    for L in (j1 ** 2, canonicalize(lf.Sin(j1))):
        with pytest.raises(lf.SecondOrderJetError, match="dL/djet"):
            lf.weak_el_residual_of(so2_lie, L, 1)


def test_lambda_map_residual(so2_lie):
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    by_slot = {(1, 1, 1): f2, (1, 2, 1): -f1}
    by_pair = {(1, 1): f2, (2, 1): -f1}
    for lam in (by_slot, by_pair):
        for alpha in (1, 2):
            assert lambda_map_residual(so2_lie, lam, 1, alpha) == \
                Rational(0)


def test_coordinates_of(so2_family):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    lam = {(1, 1, 1): 2 * f1 + 3 * f2, (1, 2, 1): 2 * f2 - 3 * f1}
    assert coordinates_of(so2_family, lam) == \
        {"a1": Fraction(2), "a2": Fraction(3)}
    assert coordinates_of(so2_family, {(1, 1, 1): f1, (1, 2, 1): f1}) is None
    # multipliers outside the ansatz basis cannot be represented
    assert coordinates_of(so2_family, {(1, 1, 1): f1 ** 3,
                                       (1, 2, 1): f2}) is None


def test_rref_exact():
    reduced, pivots = rref([[Fraction(2), Fraction(1)],
                            [Fraction(4), Fraction(2)]])
    assert reduced == [{0: Fraction(1), 1: Fraction(1, 2)}]
    assert pivots == [0]
    # a row of integers is read exactly, and zeros are not stored
    assert rref([[0, 3, 0, 6]]) == ([{1: 1, 3: 2}], [1])
    # a negative one-cell row, a row sharing its column, a row of ints and
    # a dense row: the one-cell row skips the lcm and gcd, the int row the
    # lcm, and a pivot of 1 still leaves every reduced cell a Fraction
    reduced, pivots = rref([{2: Fraction(-3, 4)},
                            {0: Fraction(1, 2), 2: 5, 4: Fraction(1, 3)},
                            {3: 2, 4: -4},
                            [Fraction(1, 3), 1, Fraction(-2, 5), 7, 0]])
    assert (reduced, pivots) == ([{0: 1, 4: Fraction(2, 3)},
                                  {1: 1, 4: Fraction(124, 9)}, {2: 1},
                                  {3: 1, 4: -2}], [0, 1, 2, 3])
    assert all(type(v) is Fraction for row in reduced for v in row.values())


def _random_sparse_matrix(seed):
    """Sparse rational rows with zero, duplicate and dependent rows mixed
    in; seed 0 gives the 0-row case."""
    rng = random.Random(seed)
    nrows = 0 if seed == 0 else rng.randint(1, 12)
    ncols = rng.randint(1, 10)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.3:
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), \
                Fraction(rng.randint(-3, 3))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        elif kind < 0.4:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         if rng.random() < 0.25 else Fraction(0)
                         for _ in range(ncols)])
    return rows, ncols


def _sympy_rref(rows, ncols):
    """SymPy's RREF of `rows`: its non-zero rows as sparse Fraction dicts,
    and its pivots."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    expected, pivots = DomainMatrix(
        [[QQ(v.numerator, v.denominator) for v in row] for row in rows],
        (len(rows), ncols), QQ).rref()
    return [{j: Fraction(v.numerator, v.denominator)
             for j, v in enumerate(row) if v}
            for row in expected.to_list()[:len(pivots)]], list(pivots)


@pytest.mark.parametrize("seed", range(50))
def test_rref_matches_sympy(seed):
    pytest.importorskip("sympy")
    rows, ncols = _random_sparse_matrix(seed)
    reduced, pivots = rref(rows)
    expected, expected_pivots = _sympy_rref(rows, ncols)
    assert pivots == expected_pivots
    assert reduced == expected
    assert all(isinstance(v, Fraction) for row in reduced
               for v in row.values())


@pytest.mark.parametrize("kind", ["int", "mixed"])
@pytest.mark.parametrize("seed", range(25))
def test_rref_reads_int_cells_exactly(seed, kind):
    # rows of plain ints (each rational row scaled by the lcm of its
    # denominators), or each integral cell an int among Fractions: the
    # reduced rows hold Fractions only, never the float of `1 / int`
    rows, ncols = _random_sparse_matrix(seed)
    if kind == "int":
        rows = [[int(v * m) for v in row]
                for row in rows
                for m in (math.lcm(*(v.denominator for v in row)),)]
    else:
        rows = [[v.numerator if v.denominator == 1 else v for v in row]
                for row in rows]
    reduced, pivots = rref(rows)
    assert all(type(v) is Fraction for row in reduced for v in row.values())
    pytest.importorskip("sympy")
    assert (reduced, pivots) == _sympy_rref(rows, ncols)


@pytest.mark.parametrize("seed", range(50))
def test_nullspace_matches_sympy(seed):
    # one vector per non-pivot column of SymPy's RREF: 1 there, 0 at every
    # other free column, and exactly orthogonal to every row
    pytest.importorskip("sympy")
    rows, ncols = _random_sparse_matrix(seed)
    _, pivots = _sympy_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    vectors = lf.nullspace_vectors(
        LinearSystem(columns=tuple(range(ncols)), rows=rows))
    assert len(vectors) == len(free)
    for f, vec in zip(free, vectors):
        assert list(vec) == sorted(vec)
        assert all(isinstance(v, Fraction) and v for v in vec.values())
        assert {g: vec.get(g, 0) for g in free} == \
            {g: int(g == f) for g in free}
        for row in rows:
            assert sum(c * vec.get(j, 0) for j, c in enumerate(row)) == 0


def _property_matrix(seed):
    """Rows for the fraction-free RREF, with zero rows, duplicate rows,
    integer multiples of earlier rows, entries around 10**30 and negative
    pivots mixed in.  Each integral cell is an int, and every third seed
    gives sparse {column: value} rows; seed 0 is the empty matrix."""
    rng = random.Random(seed)
    if seed == 0:
        return [], 0
    ncols = rng.randint(1, 9)
    scale = 10 ** 30 if seed % 4 == 0 else 12

    def entry():
        v = Fraction(rng.randint(-scale, scale),
                     rng.choice((1, 1, 2, 3, 7, scale + 1)))
        return v.numerator if v.denominator == 1 else v

    rows = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if rows and kind < 0.15:
            row = list(rng.choice(rows))
        elif rows and kind < 0.3:
            m = rng.choice((-7, -2, -1, 3, 10 ** 30))
            row = [m * v for v in rng.choice(rows)]
        elif rows and kind < 0.4:
            u, v = rng.choice(rows), rng.choice(rows)
            a = entry()
            row = [a * x - y for x, y in zip(u, v)]
        elif kind < 0.5:
            row = [0] * ncols
        else:
            row = [entry() if rng.random() < 0.5 else 0
                   for _ in range(ncols)]
            if rng.random() < 0.5:                  # a negative pivot
                lead = next((j for j, v in enumerate(row) if v), None)
                if lead is not None:
                    row[lead] = -abs(row[lead])
        rows.append([v.numerator if isinstance(v, Fraction)
                     and v.denominator == 1 else v for v in row])
    if seed % 3 == 0:
        rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return rows, ncols


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] if isinstance(row, dict)
            else list(row) for row in rows]


def _gauss_jordan(rows, ncols):
    """Plain Gauss-Jordan over Fractions: the non-zero reduced rows as
    sparse dicts, and the pivots."""
    m = [[Fraction(v) for v in row] for row in _dense(rows, ncols)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [a - row[c] * b for a, b in zip(row, m[r])]
        pivots.append(c)
    return [{j: v for j, v in enumerate(row) if v}
            for row in m[:len(pivots)]], pivots


@pytest.mark.parametrize("seed", range(200))
def test_rref_fraction_free_matches_gauss_jordan(seed):
    rows, ncols = _property_matrix(seed)
    before = copy.deepcopy(rows)
    reduced, pivots = rref(rows)
    assert rows == before
    assert (reduced, pivots) == _gauss_jordan(rows, ncols)
    assert all(type(v) is Fraction for row in reduced for v in row.values())


@pytest.mark.parametrize("seed", range(200))
def test_rref_fraction_free_matches_sympy(seed):
    pytest.importorskip("sympy")
    rows, ncols = _property_matrix(seed)
    assert rref(rows) == _sympy_rref(_dense(rows, ncols), ncols)


@pytest.mark.parametrize("seed", range(4))
def test_coordinates_of_recovers_combinations(affine_family, seed):
    # coordinates_of reduces Fraction rows: the members' vectors and the
    # target's, here with coordinates around 10**30
    rng = random.Random(seed)
    t = {p.name: Fraction(rng.randint(-10 ** 30, 10 ** 30),
                          rng.randint(1, 10 ** 6))
         if rng.random() < 0.6 else Fraction(0)
         for p in affine_family.free_params}
    lam = affine_family.multipliers_at(t)
    assert coordinates_of(affine_family, lam) == t
    # one basis monomial more in one slot stays in the family exactly
    # when the residuals still vanish: for basis[3] they do, for the
    # first three they do not
    lie, key = affine_family.lie, (1, 1, 1)
    for m in range(4):
        moved = dict(lam)
        moved[key] = lam[key] + affine_family.ansatz.basis[m]
        inside = all(lambda_map_residual(lie, moved, 1, alpha)
                     == Rational(0) for alpha in range(1, lie.n + 1))
        assert inside == (m == 3) == (
            coordinates_of(affine_family, moved) is not None)


SE2_SOURCE = """
group se2 {
  params: t, a, b;
  coords: X1, X2;
  identity: (0, 0, 0);
  inverse: (-t, -a*cos(t) - b*sin(t), a*sin(t) - b*cos(t));
  multiply: (lhs.t + rhs.t,
             lhs.a + rhs.a*cos(lhs.t) - rhs.b*sin(lhs.t),
             lhs.b + rhs.a*sin(lhs.t) + rhs.b*cos(lhs.t));
  action: (X1*cos(t) - X2*sin(t) + a, X1*sin(t) + X2*cos(t) + b);
}
"""


def _full_system(lie, ansatz):
    """The whole multiplier system, collected from every (k, alpha)
    residual independently of the block solve."""
    return lf.collect_system(
        [lf.weak_el_residual_of(lie, ansatz.lagrangian_component(k), a)
         for k in range(1, lie.r + 1) for a in range(1, lie.n + 1)], ansatz)


@pytest.mark.parametrize("source, r, deg_g",
                         [("affine1", 2, (-1, 0)), ("se2", 3, (0, 0))])
def test_block_solve_matches_full_system(source, r, deg_g, affine_lie):
    # solve_family reduces and keeps the block of L_1 only; collecting
    # every (k, alpha) residual must give r shifted copies of it
    lie = affine_lie if source == "affine1" else \
        lf.constraints(lf.parse(SE2_SOURCE))
    assert lie.r == r
    ansatz = lf.build_ansatz(lie, deg_x=1, deg_g=deg_g)
    family = lf.solve_family(lie, ansatz)
    full = _full_system(lie, ansatz)
    system = family.system
    width = len(system.columns)
    assert r * width == len(full.columns)
    assert system.columns == full.columns[:width]
    # the block's rows are sparse, ascending, inside the block; the
    # expression path's are dense over every column
    assert all(list(row) == sorted(row) and 0 <= min(row) <= max(row) < width
               for row in system.rows)
    assert all(len(row) == r * width for row in full.rows)

    def sparse(row, shift=0):
        cells = row.items() if isinstance(row, dict) else enumerate(row)
        return tuple((j + shift, c) for j, c in cells if c)

    assert sorted(map(sparse, full.rows)) == sorted(
        sparse(row, k * width) for k in range(r) for row in system.rows)
    assert full.rank == r * system.rank
    reduced, pivots = system.reduced
    assert rref(full.rows) == (
        [{j + k * width: v for j, v in row.items()}
         for k in range(r) for row in reduced],
        [p + k * width for k in range(r) for p in pivots])
    # the members are independent and lie in the nullspace, so they span it
    ncols = len(full.columns)
    assert family.dimension == ncols - full.rank
    vectors = family.members
    assert len(rref([[v.get(j, 0) for j in range(ncols)]
                     for v in vectors])[1]) == family.dimension
    for row in map(sparse, full.rows):
        for vec in vectors:
            assert sum(c * vec.get(j, 0) for j, c in row) == 0


def _kernel_number(c):
    """Whether `c` is a coefficient as the kernel keeps it: an int when
    integral, a Fraction otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)), ("se2", 1, (0, 0))])
def test_integral_coefficients_are_ints(source, deg_x, deg_g):
    # L_1 of the ansatz, its weak residuals and the family's Lagrangians
    text = SE2_SOURCE if source == "se2" else lf.bundled_source(source)
    lie = lf.constraints(lf.parse(text))
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    family = lf.solve_family(lie, ansatz)
    L = ansatz.lagrangian_component(1)
    exprs = [L, *family.lagrangians] + [
        lf.weak_el_residual_of(lie, L, alpha) for alpha in range(1, lie.n + 1)]
    coeffs = [c for e in exprs for c, _ in lf.monomials(e)]
    assert all(map(_kernel_number, coeffs))
    # the block's sparse rows, summed column by column, hold no zero cell;
    # the dense rows of the expression path keep theirs as int 0
    cells = [v for row in family.system.rows for v in row.values()]
    assert cells and all(v and _kernel_number(v) for v in cells)
    dense = [v for row in lf.collect_system(
        [lf.weak_el_residual_of(lie, L, alpha)
         for alpha in range(1, lie.n + 1)], ansatz).rows for v in row]
    assert 0 in dense and all(type(v) is int for v in dense if not v)
    assert all(map(_kernel_number, (v for v in dense if v)))


def _tree_compose(lie, lambdas, k):
    """L_k through one Sum/Product tree, canonicalized once."""
    return canonicalize(Sum(tuple(
        Product((lambdas[(k, a, s)], lie.phi[a - 1][s - 1]))
        for a in range(1, lie.n + 1) for s in range(1, lie.r + 1))))


def _tree_euler_lagrange(lie, L, alpha):
    """The E-L expression through one Sum/Product tree."""
    terms = [lf.differentiate(L, lie.fields[alpha - 1])]
    for i, p in enumerate(lie.spec.params):
        A = lf.differentiate(L, lie.jets[alpha - 1][i])
        terms.append(Product((Rational(-1), lf.differentiate(A, p))))
        terms.extend(Product((Rational(-1), lf.differentiate(A, f),
                              Sym(jets_f[i])))
                     for f, jets_f in zip(lie.fields, lie.jets))
    return canonicalize(Sum(tuple(terms)))


def _tree_assembly(family):
    """Members, multipliers and Lagrangians assembled from the nullspace of
    the whole system, collected over every (k, alpha), through Sum/Product
    trees, one canonicalization each."""
    lie, ansatz = family.lie, family.ansatz
    members = []
    for vec in lf.nullspace_vectors(_full_system(lie, ansatz)):
        lead = next(iter(vec.values()))
        vec = {j: v / lead for j, v in vec.items()}
        members.append((vec, {key: canonicalize(Sum(tuple(
            Product((Rational(vec[info.index[0]]), mono))
            for info, mono in zip(infos, ansatz.basis)
            if info.index[0] in vec)))
            for key, infos in ansatz.unknowns.items()}))
    members.sort(key=lambda m: tuple(m[1][key].sort_key()
                                     for key in sorted(m[1])))
    multipliers = {key: canonicalize(Sum(tuple(
        Product((Sym(p), m[key]))
        for p, (_, m) in zip(family.free_params, members)
        if m[key] != Rational(0)))) for key in ansatz.unknowns}
    lagrangians = [_tree_compose(lie, multipliers, k)
                   for k in range(1, lie.r + 1)]
    return members, multipliers, lagrangians


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)), ("se2", 1, (0, 0)),
    ("affine1", 2, (-1, 0)), ("se2", 2, (0, 0)), ("scale3", 1, (-1, 0)),
    ("scale1", None, (-1, 1))])
def test_family_matches_tree_assembly(source, deg_x, deg_g):
    # the family is assembled once per block vector from monomial lists,
    # and each L_k's E-L expressions are derived from L_k; a tree assembly
    # of the whole system's nullspace, with E-L taken of every L_k, gives
    # the same members in the same order
    lie = lf.constraints(lf.parse(SE2_SOURCE)) if source == "se2" \
        else _lie_of(source)
    if deg_x is None:
        # scale1's one multiplier is 1/X1', so the basis holds X1'^-1;
        # its phi, and so L_1, hold the inverse sum (1 + g)^-1
        X, g = Sym(lie.fields[0]), Sym(lie.spec.params[0])
        ansatz = lf.ansatz_from_basis(lie, [
            X ** a * g ** b for a in (-1, 0, 1)
            for b in range(deg_g[0], deg_g[1] + 1)])
    else:
        ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    family = lf.solve_family(lie, ansatz)
    members, multipliers, lagrangians = _tree_assembly(family)
    assert family.members == [vec for vec, _ in members]
    assert [family.multipliers_at({p: 1}) for p in family.free_params] == \
        [mu for _, mu in members]
    # the members run by component from the last, d to a component
    d, width = family.dimension // lie.r, len(family.system.columns)
    for i, vec in enumerate(family.members):
        k = lie.r - i // d
        assert all((k - 1) * width <= j < k * width for j in vec)
    assert family.multipliers == multipliers
    assert family.lagrangians == lagrangians
    assert family.strong_el == [
        [_tree_euler_lagrange(lie, L, alpha) for alpha in range(1, lie.n + 1)]
        for L in lagrangians]
    if deg_x is None:
        assert family.dimension == 1
        assert any(isinstance(atom, Sum) for _, pairs in
                   lf.monomials(family.lagrangians[0]) for atom, _ in pairs)
    else:
        assert family.dimension > 1


SCALE3_SOURCE = """
group scale3 {
  params: s, a, b;
  coords: X1, X2;
  identity: (1, 0, 0);
  inverse: (1/s, -a/s, -b/s);
  multiply: (lhs.s*rhs.s, lhs.s*rhs.a + lhs.a, lhs.s*rhs.b + lhs.b);
  action: (s*X1 + a, s*X2 + b);
}
"""


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)),
    ("perfbench/groups/se2.grp", 1, (0, 0)), ("scale3", 1, (-1, 0))])
def test_monomial_builds_match_tree_built(source, deg_x, deg_g):
    # the ansatz multipliers, L_k and its E-L expressions are built on
    # monomial lists; Sum/Product trees canonicalized once give the same
    if source == "scale3":
        text = SCALE3_SOURCE
    elif source.endswith(".grp"):
        text = (Path(__file__).resolve().parents[1] / source).read_text()
    else:
        text = lf.bundled_source(source)
    lie = lf.constraints(lf.parse(text))
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    assert ansatz.lambdas == {key: canonicalize(Sum(tuple(
        Product((Sym(info), mono))
        for info, mono in zip(infos, ansatz.basis))))
        for key, infos in ansatz.unknowns.items()}
    family = lf.solve_family(lie, ansatz)
    assert family.dimension > 0
    for lambdas in (ansatz.lambdas, family.multipliers):
        for k in range(1, lie.r + 1):
            L = compose_lagrangian(lie, lambdas, k)
            assert L == _tree_compose(lie, lambdas, k)
            for alpha in range(1, lie.n + 1):
                E = euler_lagrange(lie, L, alpha)
                assert E == _tree_euler_lagrange(lie, L, alpha)
                assert lf.weak_el_residual_of(lie, L, alpha) == \
                    canonicalize(_subst(E, lie.onshell))


SCALE1_SOURCE = """
group scale1 {
  params: g;
  coords: X1;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: ((1 + g)*X1);
}
"""


def test_lambda_map_residual_with_inverse_sums():
    # phi = X1'_g - X1' + g*X1'*(1 + g)^-1 holds the inverse of the
    # multiplier 1 + g, so their product keeps the tree path
    lie = lf.constraints(lf.parse(SCALE1_SOURCE))
    phi = lie.phi[0][0]
    assert str(phi) == "g*X1'*(1 + g)^-1 - X1' + X1'_g"
    g = Sym(lie.spec.params[0])
    lam = {(1, 1): 1 + g}
    L = compose_lagrangian(lie, {(1, 1, 1): lam[(1, 1)]}, 1)
    assert L == _tree_compose(lie, {(1, 1, 1): lam[(1, 1)]}, 1)
    assert lambda_map_residual(lie, lam, 1, 1) == canonicalize(_subst(
        _tree_euler_lagrange(lie, L, 1), lie.onshell))
    # a multiplier holding the inverse of phi: the product cancels to 1
    # only on the tree path
    assert compose_lagrangian(lie, {(1, 1, 1): 1 / phi}, 1) == Rational(1)
    assert lambda_map_residual(lie, {(1, 1): 1 / phi}, 1, 1) == \
        Rational(0)


# X1'^39 in an on-shell value and X1'^38 in dphi, with g^-2 in the basis:
# the widest exponent fields of the packed column table, and negative ones
SHEAR40_SOURCE = """
group shear40 {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + g, X2 + (X1 + g)^40 - X1^40);
}
"""


def _lie_of(source):
    """A bundled group by name, an inline source by name, or a .grp file
    by its path from the repository root."""
    if source.endswith(".grp"):
        text = (Path(__file__).resolve().parents[1] / source).read_text()
    else:
        text = {"scale1": SCALE1_SOURCE, "scale3": SCALE3_SOURCE,
                "shear40": SHEAR40_SOURCE}.get(source)
    return lf.constraints(lf.parse(text or lf.bundled_source(source)))


def _component_multipliers(ansatz, k=1):
    """The ansatz multipliers of component k, keyed by the slot (a, s)."""
    return {key[1:]: lam for key, lam in ansatz.lambdas.items()
            if key[0] == k}


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 1, (0, 0)), ("so2", 3, (0, 0)), ("so2", 4, (0, 0)),
    ("affine1", 1, (-1, 0)), ("affine1", 2, (-1, 0)),
    ("affine1", 1, (-1, 1)), ("affine1", 2, (-1, 1)),
    ("affine1", 1, (-2, 1)),
    ("perfbench/groups/se2.grp", 1, (0, 0)),
    ("perfbench/groups/se2.grp", 2, (0, 0)),
    ("scale3", 1, (-1, 0)), ("scale1", 1, (0, 1)), ("affine1", 2, (-2, 2)),
    ("shear40", 2, (-2, 2)), ("perfbench/groups/se2.grp", 1, (0, 1))])
def test_multiplier_residual_matches_expression_path(source, deg_x, deg_g):
    # the block of L_1 written column by column from the ansatz is, row by
    # row and in order, the system collected from the expression path: the
    # E-L expressions of the composed L_1 with the on-shell values
    # substituted, split by their monomials in all but the unknowns.  The
    # last two rungs test the packed codes' edges: exponent fields as wide
    # as X1'^39 times a lowered basis monomial, with negative g exponents,
    # and sin and cos atoms among the packed keys
    lie = _lie_of(source)
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    L = ansatz.lagrangian_component(1)
    reference = lf.collect_system([lf.weak_el_residual_of(lie, L, alpha)
                                   for alpha in range(1, lie.n + 1)], ansatz)
    system = lf.collect_system([lf.weak_el_residual_of(lie, ansatz, alpha)
                                for alpha in range(1, lie.n + 1)], ansatz)
    width = len(system.columns)
    assert lie.r * width == len(reference.columns)
    assert system.columns == reference.columns[:width]
    assert not any(v for row in reference.rows for v in row[width:])
    assert system.rows
    assert system.rows == [{j: v for j, v in enumerate(row) if v}
                           for row in reference.rows]
    assert system.reduced == reference.reduced
    assert lf.solve_family(lie, ansatz).system.rows == system.rows


@pytest.mark.parametrize("form", ["factor", "sine"])
def test_basis_rejects_jets(so2_lie, form):
    # every multiplier is a combination of the basis, so a basis element
    # holding a jet, as a factor or inside a sine, would make dL/djet
    # depend on a jet; the ansatz refuses it before any residual is taken
    f1 = Sym(so2_lie.fields[0])
    j1 = Sym(so2_lie.jets[0][0])
    element = f1 * j1 ** 2 if form == "factor" else lf.Sin(f1 + j1)
    with pytest.raises(ValueError, match="is not a monomial"):
        lf.ansatz_from_basis(so2_lie, [f1, canonicalize(element)])


@pytest.mark.parametrize("source", ["so2", "affine1",
                                    "perfbench/groups/se2.grp"])
def test_multiplier_residual_missing_slots_are_zero(source):
    # explicit multipliers with every other slot left out of the map: the
    # residual is that of L composed with those slots at 0
    lie = _lie_of(source)
    lambdas = _component_multipliers(lf.build_ansatz(lie, deg_x=1))
    kept = {slot: lam for i, (slot, lam) in enumerate(lambdas.items())
            if i % 2 == 0}
    assert 0 < len(kept) < len(lambdas)
    L = compose_lagrangian(lie, {(1,) + slot: kept.get(slot, Rational(0))
                                 for slot in lambdas}, 1)
    for alpha in range(1, lie.n + 1):
        got = lambda_map_residual(lie, kept, 1, alpha)
        assert got != Rational(0)
        assert got == lf.weak_el_residual_of(lie, L, alpha)
        assert got == lambda_map_residual(
            lie, {(1,) + slot: lam for slot, lam in kept.items()}, 1, alpha)
    assert lambda_map_residual(lie, {}, 1, 1) == Rational(0)


def test_nullspace_orthogonal_to_rows(so2_family):
    system = so2_family.system
    vectors = lf.nullspace_vectors(system)
    assert len(vectors) == len(system.columns) - system.rank
    for vec in vectors:
        assert all(0 <= j < len(system.columns) for j in vec)
        for row in system.rows:
            assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0


def test_affine_family_shape(affine_family):
    ansatz = affine_family.ansatz
    assert len(ansatz.basis) == 16
    assert len(_unknowns(ansatz)) == 128
    # the system is r = 2 copies of the block that is kept
    assert affine_family.lie.r == 2
    assert len(affine_family.system.columns) == 64
    assert 2 * len(affine_family.system.rows) == 116
    assert 2 * affine_family.system.rank == 88
    assert affine_family.dimension == 40
    assert [p.name for p in affine_family.free_params] == \
        [f"a{i}" for i in range(1, 41)]


def test_free_params_are_named_apart_from_the_group():
    # affine1 with its parameters named a1, a2: the family's own a1, a2
    # would print the same as them, so they take a `_` suffix
    source = lf.bundled_source("affine1").replace("g1", "a1").replace("g2",
                                                                      "a2")
    lie = lf.constraints(lf.parse(source))
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=1,
                                                  deg_g=(-1, 0)))
    names = [p.name for p in family.free_params]
    assert names == ["a1_", "a2_"] + [f"a{i}" for i in range(3, 41)]
    taken = {s.name for s in (*lie.spec.params, *lie.spec.coords,
                              *lie.fields, *itertools.chain(*lie.jets))}
    assert taken.isdisjoint(names)
    assert {s.name for s in lf.free_symbols(family.lagrangians[1])} >= \
        {"a1", "a2", "a10"}


def _rank_mod(rows, p=MODULUS):
    """Rank of integer rows modulo the prime p, by row echelon form."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        r = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        pivot = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


@pytest.mark.hash_order
@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)),
    ("perfbench/groups/se2.grp", 1, (0, 0)),
    ("perfbench/groups/se2.grp", 2, (0, 0)),
    ("affine1", 1, (-1, 0)), ("affine1", 2, (-1, 0)), ("so2", 4, (0, 0))])
def test_functional_rank_equals_split_rank(source, deg_x, deg_g):
    # The block's rank counts its residuals split into monomials in the
    # fields, the parameters and their sines and cosines, as if those were
    # independent; sin^2 + cos^2 = 1 says they need not be.  Evaluating
    # each column's coefficient, read off the expression path, exactly at
    # seeded points modulo a prime, each angle at a point of the unit
    # circle, gives the rank of the residual map on functions.  It is at
    # most the split rank and at least the rank of the evaluations modulo
    # the prime, so equality there certifies that splitting loses no
    # Lagrangian of the ansatz.
    lie = _lie_of(source)
    ansatz = lf.build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    system = lf.solve_family(lie, ansatz).system
    width = len(system.columns)
    L = ansatz.lagrangian_component(1)
    residuals = []          # per field: {column: coefficient}
    for alpha in range(1, lie.n + 1):
        terms = {}
        for c, pairs in lf.monomials(lf.weak_el_residual_of(lie, L, alpha)):
            (unknown, n), *rest = pairs     # an unknown sorts first
            assert unknown.info.role == Role.ANSATZ_UNKNOWN and n == 1
            terms.setdefault(unknown.info.index[0], []).append(
                (c, tuple(rest)))
        residuals.append({j: polynomial_expr(monos)
                          for j, monos in terms.items()})
    angles = {lie.spec.params[j] for j in lie.spec.angles()}
    rng = random.Random(0x5EED)
    rows = []
    for _ in range(system.rank // lie.n + 3):
        env = {v: rng.randrange(MODULUS) for v in lie.fields + lie.spec.params}
        env.update((v, circle_point(env[v])) for v in angles)
        memo = {}
        for columns in residuals:
            row = [0] * width
            for j, coefficient in columns.items():
                row[j] = exact_value(coefficient, env, memo)
            rows.append(row)
    assert _rank_mod(rows) == system.rank
    assert system.rank < width
