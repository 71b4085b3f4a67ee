"""Multiplier ansatz, exact linear system, and the Lagrangian family."""

import random
from fractions import Fraction

import pytest

import lagrforge as lf
from lagrforge import (BasisTooLargeError, NonlinearInUnknownsError, Product,
                       Rational, Role, Sum, Sym, canonicalize)
from lagrforge.printing import prefix_expr
from lagrforge.solver import LinearSystem, rref


def test_build_ansatz_so2(so2_lie):
    ansatz = lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0))
    assert [prefix_expr(b) for b in ansatz.basis] == \
        ["1", "X1'", "X2'", "(* X1' X2')"]
    assert len(ansatz.columns) == 8
    assert list(ansatz.unknowns) == [(1, 1, 1), (1, 2, 1)]
    names = [c.name for c in ansatz.columns]
    assert names[:4] == ["c1_11_0", "c1_11_1", "c1_11_2", "c1_11_3"]
    assert all(c.role == Role.ANSATZ_UNKNOWN for c in ansatz.columns)
    L = ansatz.lagrangian_component(1)
    assert lf.free_symbols(L) >= set(ansatz.columns)


@pytest.mark.parametrize("name, deg_g",
                         [("so2", (0, 0)), ("affine1", (-1, 1))])
def test_unknowns_carry_their_column(name, deg_g, so2_lie, affine_lie):
    lie = so2_lie if name == "so2" else affine_lie
    ansatz = lf.build_ansatz(lie, deg_x=1, deg_g=deg_g)
    assert all(c.index == (i,) for i, c in enumerate(ansatz.columns))


def test_build_ansatz_validation(so2_lie):
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=-1)
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(1, 2))  # range misses 0
    with pytest.raises(ValueError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, -1))
    with pytest.raises(BasisTooLargeError):
        lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0), max_unknowns=4)


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
    assert len(ansatz.columns) == 4
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


def test_nonlinear_residual_rejected(so2_lie):
    ansatz = lf.build_ansatz(so2_lie, deg_x=1, deg_g=(0, 0))
    c0, c1 = (Sym(c) for c in ansatz.columns[:2])
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
    assert family.members[0].multipliers == {(1, 1, 1): f1, (1, 2, 1): f2}
    assert family.members[1].multipliers == {(1, 1, 1): f2, (1, 2, 1): -f1}
    # members are normalized: leading coefficient +1
    for member in family.members:
        assert list(member.vector) == sorted(member.vector)
        assert 0 not in member.vector.values()
        assert next(iter(member.vector.values())) == 1

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
    j1 = Sym(so2_lie.jets[0][0])
    with pytest.raises(lf.SecondOrderJetError):
        lf.weak_el_residual_of(so2_lie, j1 ** 2, 1)


def test_lambda_map_residual(so2_lie):
    f1, f2 = (Sym(f) for f in so2_lie.fields)
    by_slot = {(1, 1, 1): f2, (1, 2, 1): -f1}
    by_pair = {(1, 1): f2, (2, 1): -f1}
    for lam in (by_slot, by_pair):
        for alpha in (1, 2):
            assert lf.lambda_map_residual(so2_lie, lam, 1, alpha) == \
                Rational(0)


def test_coordinates_of(so2_family):
    lie = so2_family.lie
    f1, f2 = (Sym(f) for f in lie.fields)
    lam = {(1, 1, 1): 2 * f1 + 3 * f2, (1, 2, 1): 2 * f2 - 3 * f1}
    assert so2_family.coordinates_of(lam) == \
        {"a1": Fraction(2), "a2": Fraction(3)}
    assert so2_family.coordinates_of({(1, 1, 1): f1, (1, 2, 1): f1}) is None
    # multipliers outside the ansatz basis cannot be represented
    assert so2_family.coordinates_of({(1, 1, 1): f1 ** 3,
                                      (1, 2, 1): f2}) is None


def test_rref_exact():
    reduced, pivots = rref([[Fraction(2), Fraction(1)],
                            [Fraction(4), Fraction(2)]])
    assert reduced == [{0: Fraction(1), 1: Fraction(1, 2)}]
    assert pivots == [0]
    # a row of integers is read exactly, and zeros are not stored
    assert rref([[0, 3, 0, 6]]) == ([{1: 1, 3: 2}], [1])


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
    assert all(len(row) == width for row in system.rows)

    def sparse(row, shift=0):
        return tuple((j + shift, c) for j, c in enumerate(row) if c)

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
    vectors = [member.vector for member in family.members]
    assert len(rref([[v.get(j, 0) for j in range(ncols)]
                     for v in vectors])[1]) == family.dimension
    for row in map(sparse, full.rows):
        for vec in vectors:
            assert sum(c * vec.get(j, 0) for j, c in row) == 0


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
    lagrangians = [canonicalize(Sum(tuple(
        Product((multipliers[(k, a, s)], lie.phi[a - 1][s - 1]))
        for a in range(1, lie.n + 1) for s in range(1, lie.r + 1))))
        for k in range(1, lie.r + 1)]
    return members, multipliers, lagrangians


@pytest.mark.parametrize("source, deg_x, deg_g", [
    ("so2", 3, (0, 0)), ("affine1", 1, (-1, 1)), ("se2", 1, (0, 0))])
def test_family_matches_tree_assembly(source, deg_x, deg_g):
    # the family is assembled from monomial lists; a tree assembly of the
    # same nullspace gives the same members in the same order
    text = SE2_SOURCE if source == "se2" else lf.bundled_source(source)
    lie = lf.constraints(lf.parse(text))
    family = lf.solve_family(lie, lf.build_ansatz(lie, deg_x=deg_x,
                                                  deg_g=deg_g))
    members, multipliers, lagrangians = _tree_assembly(family)
    assert [m.vector for m in family.members] == [vec for vec, _ in members]
    assert [m.multipliers for m in family.members] == [mu for _, mu in members]
    assert family.multipliers == multipliers
    assert family.lagrangians == lagrangians
    assert family.dimension > 1


def test_nullspace_orthogonal_to_rows(so2_family):
    system = so2_family.system
    vectors = lf.nullspace_vectors(system)
    assert len(vectors) == len(system.columns) - system.rank
    for vec in vectors:
        assert all(0 <= j < len(system.columns) for j in vec)
        for row in system.rows:
            assert sum(c * vec.get(j, 0) for j, c in enumerate(row)) == 0


def test_affine_family_shape(affine_family):
    ansatz = affine_family.ansatz
    assert len(ansatz.basis) == 16
    assert len(ansatz.columns) == 128
    # the system is r = 2 copies of the block that is kept
    assert affine_family.lie.r == 2
    assert len(affine_family.system.columns) == 64
    assert 2 * len(affine_family.system.rows) == 116
    assert 2 * affine_family.system.rank == 88
    assert affine_family.dimension == 40
    assert [p.name for p in affine_family.free_params] == \
        [f"a{i}" for i in range(1, 41)]
