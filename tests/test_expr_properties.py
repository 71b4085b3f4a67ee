"""Seeded property checks for the expression kernel."""

import copy
import functools
import math
import operator
import random
import re
import struct
from fractions import Fraction

import pytest

from lagrforge import (Cos, Equivalence, Power, Product, Rational, Role, Sin,
                       Sum, Sym, SymbolInfo, canonicalize, constraints,
                       differentiate, free_symbols, monomials, parse,
                       substitute, validate_axioms)
from lagrforge import expr
from lagrforge.dsl import AXIOM_SAMPLES, MAX_NESTING
from lagrforge.expr import (MAX_REJECTIONS, MODULUS, SAMPLE_SPAN,
                            NearSingularEvaluationError, SampleOutcome,
                            UnboundSymbolError, _diff, _factor_key, _subst,
                            compile_numeric, eval_numeric, exact_value,
                            format_expr,
                            polynomial_expr, product_monomials, sample_expr,
                            term_factors)
from lagrforge.printing import default_symbol_latex, latex_expr, prefix_expr

from genexpr import (ANGLES, VARS, fraction_value, random_exact_expr,
                     random_expr, sample_point, try_eval)


def test_differentiate_matches_finite_differences():
    rng = random.Random(420)
    h = 1e-6
    checked = 0
    draws = 0
    while checked < 50:
        draws += 1
        assert draws < 4000, "not enough smooth samples"
        e = random_expr(rng)
        v = rng.choice(VARS)
        point = sample_point(rng)
        stencil = []
        usable = True
        for delta in (-h, h):
            shifted = dict(point)
            shifted[v.name] = point[v.name] + delta
            value = try_eval(e, shifted)
            if value is None or abs(value) > 1e4:
                usable = False
                break
            stencil.append(value)
        exact = try_eval(differentiate(e, v), point) if usable else None
        if exact is None:
            continue
        fd = (stencil[1] - stencil[0]) / (2 * h)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))
        checked += 1


def _has_chain_atom(e):
    """Whether the tree holds a sine, cosine or negative power of a sum."""
    if isinstance(e, (Sin, Cos)):
        return True
    if isinstance(e, Power):
        return (e.exponent < 0 and isinstance(e.base, Sum)) or \
            _has_chain_atom(e.base)
    return any(_has_chain_atom(k) for k in getattr(e, "terms", ()) +
               getattr(e, "factors", ()))


@pytest.mark.hash_order
def test_differentiate_matches_tree_walk():
    # the term-by-term derivative is the canonicalized chain-rule tree of
    # the whole canonical form, by each variable and by an absent symbol
    rng = random.Random(8128)
    absent = SymbolInfo("w", Role.BASE_COORDINATE)
    chained = 0
    for _ in range(300):
        e = random_expr(rng, depth=rng.randint(2, 4))
        c = canonicalize(e)
        chained += _has_chain_atom(c)
        for info in VARS + (absent,):
            want = canonicalize(_diff(c, info))
            got = differentiate(e, info)
            assert got == want
            assert differentiate(e, Sym(info)) == want
    assert chained > 50


def _replacements(rng):
    """A replacement drawn from the kinds substitution treats apart: a
    symbol, a constant (zero included), a sum, a product holding an
    inverse sum, a trig atom, or a random tree."""
    x, y, z = (Sym(v) for v in VARS)
    kinds = (lambda: rng.choice((x, y, z)),
             lambda: Rational(rng.randint(-2, 2), rng.randint(1, 3)),
             lambda: x + 2 * y,
             lambda: y - Rational(1, 2) * z ** 2,
             lambda: Sum((rng.choice((x, y, z)), rng.choice((x, y, z)),
                          Rational(rng.randint(-1, 1)))),
             lambda: y / (x + z),
             lambda: 3 * x * z ** -1 / (y - 1),
             lambda: Sin(z),
             lambda: Cos(x + y),
             lambda: random_expr(rng, depth=2))
    return rng.choice(kinds)()


def _with_inverse(rng, e):
    """`e` as is, or times a negative power of a symbol or, as often as
    both together, of a small sum."""
    syms = [Sym(v) for v in VARS]
    kind = rng.randrange(4)
    if kind == 0:
        return e
    base = rng.choice(syms) if kind == 1 else Sum(
        (rng.choice(syms), rng.choice(syms + [Rational(1)])))
    return Product((e, Power(base, rng.choice((-1, -2)))))


@pytest.mark.hash_order
def test_substitute_matches_tree_walk():
    # the term-by-term substitution is the canonicalized substitution tree
    # of the whole canonical form, for raw and canonical input alike
    rng = random.Random(6174)
    inside = negative = meets = 0
    for _ in range(400):
        e = _with_inverse(rng, random_expr(rng, depth=rng.randint(2, 4)))
        c = canonicalize(e)
        table = {v: _replacements(rng)
                 for v in rng.sample(VARS, rng.randint(1, 3))}
        want = canonicalize(_subst(c, table))
        assert substitute(e, table) == want
        assert substitute(c, {Sym(v): r for v, r in table.items()}) == want
        # count the terms that each reason sends down the tree path
        for _, pairs in monomials(c):
            replaced = [(table[a.info], n) for a, n in pairs
                        if isinstance(a, Sym) and a.info in table]
            inside += any(not isinstance(a, Sym) and
                          not free_symbols(a).isdisjoint(table)
                          for a, _ in pairs)
            negative += any(n < 0 for _, n in replaced)
            meets += any(isinstance(a, Sum) for a, _ in pairs) and any(
                isinstance(canonicalize(r), Sum) for r, _ in replaced)
    assert min(inside, negative, meets) > 10


def test_substitute_cancels_a_sum_against_its_inverse():
    # y*(x+z)^-1 with y -> x + z: the tree path cancels the sum against its
    # inverse; multiplying the monomials out would not
    x, y, z = (Sym(v) for v in VARS)
    X, Y, _ = VARS
    s = canonicalize(Sum((x, z)))
    assert substitute(y / s, {Y: s}) == Rational(1)
    # a square of the sum is expanded before it meets the inverse, so
    # nothing cancels on either path
    assert substitute(3 * y ** 2 / s, {Y: s}) == \
        canonicalize(_subst(canonicalize(3 * y ** 2 / s), {Y: s}))
    # x sits inside the inverse sum as well as outside it
    assert substitute(x / s, {X: s - z}) == \
        canonicalize(_subst(canonicalize(x / s), {X: s - z}))
    assert substitute(x / s, {X: y + z}) == \
        canonicalize(Product((Sum((y, z)), Power(Sum((y, z, z)), -1))))


def test_monomials_returns_a_copy_of_the_cache():
    x, y, _ = (Sym(v) for v in VARS)
    e = canonicalize(Power(Sum((x, y, Rational(1))), 2))
    first = monomials(e)
    first.clear()
    first.append((Rational(5), ()))
    again = monomials(e)
    assert len(again) == 6 and again is not first
    assert canonicalize(Sum(tuple(
        Product((Rational(c),) + tuple(Power(a, n) for a, n in pairs))
        for c, pairs in again))) == e


def _walked_symbols(e) -> set:
    out, stack = set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.info)
        else:
            stack.extend(expr._operands(node))
    return out


def test_free_symbols_is_each_nodes_own_frozenset():
    # a node keeps its symbol set: a raw tree, its canonical form and each
    # atom of that form give the symbols a walk of their operands finds, as
    # a frozenset that a second call returns again
    rng = random.Random(4099)
    atoms = 0
    for _ in range(300):
        for e in (random_expr(rng), random_exact_expr(rng)):
            c = canonicalize(e)
            nodes = [e, c] + [atom for _, pairs in monomials(c)
                              for atom, _ in pairs]
            atoms += len(nodes) - 2
            for node in nodes:
                syms = free_symbols(node)
                assert type(syms) is frozenset
                assert syms == _walked_symbols(node)
                assert free_symbols(node) is syms
    assert atoms > 1000


def _fraction_typed(e):
    """A copy of canonical `e` whose cached monomials hold every
    coefficient as a Fraction, integral ones included."""
    out = copy.copy(e)
    out._monos = tuple((Fraction(c), pairs) for c, pairs in monomials(e))
    return out


def _same(a, b):
    return a.sort_key() == b.sort_key() and format_expr(a) == format_expr(b)


def test_integral_fractions_give_what_ints_give():
    # the kernel keeps integral coefficients as ints; fed the same
    # monomials with Fraction-typed coefficients, each operation gives the
    # same canonical form, and its own monomials hold ints again
    rng = random.Random(1729)
    fractional = 0
    for _ in range(200):
        a, b = (canonicalize(random_expr(rng)) for _ in range(2))
        fa, fb = _fraction_typed(a), _fraction_typed(b)
        fractional += any(type(c) is Fraction for c, _ in monomials(a))
        v = rng.choice(VARS)
        table = {v: _replacements(rng)}
        pairs = [
            (polynomial_expr(monomials(a) + monomials(b)),
             polynomial_expr(monomials(fa) + monomials(fb))),
            (polynomial_expr(product_monomials((a, b))),
             polynomial_expr(product_monomials((fa, fb)))),
            (differentiate(a, v), differentiate(fa, v)),
            (substitute(a, table), substitute(fa, table)),
            (substitute(a, table),
             substitute(fa, {k: _fraction_typed(canonicalize(r))
                             for k, r in table.items()}))]
        for want, got in pairs:
            assert _same(got, want)
            assert all(type(c) is int or c.denominator != 1
                       for c, _ in monomials(got))
    assert fractional > 20


def test_canonicalize_idempotent_and_evaluation_sound():
    rng = random.Random(2718)
    checked = 0
    draws = 0
    while checked < 100:
        draws += 1
        assert draws < 5000, "not enough evaluable samples"
        e = random_expr(rng)
        c = canonicalize(e)
        assert canonicalize(c) == c
        compared = 0
        for _ in range(3):
            point = sample_point(rng)
            raw = try_eval(e, point)
            canon = try_eval(c, point)
            if raw is None or canon is None:
                continue
            assert abs(raw - canon) <= 1e-9 * max(1.0, abs(raw))
            compared += 1
        if compared:
            checked += 1


def test_nary_sum_matches_running_sum():
    # one canonicalization of the whole sum gives what adding the terms one
    # at a time gives, whatever their order
    rng = random.Random(3141)
    for _ in range(80):
        terms = [random_expr(rng) for _ in range(rng.randint(0, 6))]
        nary = canonicalize(Sum(tuple(terms)))
        assert nary == functools.reduce(operator.add, terms, Rational(0))
        rng.shuffle(terms)
        assert nary == canonicalize(Sum(tuple(terms)))


def test_compiled_evaluation_is_bit_identical():
    # raw and canonical trees, several per function so that nodes are
    # shared; a point where eval_numeric trips the guard must trip the
    # compiled guard too, with the same message
    rng = random.Random(1618)
    names = [v.name for v in VARS]
    singular = 0
    for _ in range(300):
        exprs = [random_expr(rng) for _ in range(3)]
        exprs.append(canonicalize(exprs[0]))
        fn = compile_numeric(exprs, names)
        for _ in range(3):
            point = sample_point(rng)
            args = [point[n] for n in names]
            try:
                want = [eval_numeric(e, point) for e in exprs]
            except NearSingularEvaluationError as exc:
                with pytest.raises(NearSingularEvaluationError,
                                   match=re.escape(str(exc))):
                    fn(*args)
                singular += 1
                continue
            got = fn(*args)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == w
                assert math.copysign(1.0, g) == math.copysign(1.0, w)
    assert singular > 0


def test_compiled_sum_starts_from_integer_zero():
    # sum() adds to the integer 0, so a sum of negative zeros is +0.0
    x = Sym(VARS[0])
    neg = Product((Rational(-1), x))
    exprs = [Sum((neg,)), Sum((neg, neg)), Sum(()), neg]
    got = compile_numeric(exprs, ["x"])(0.0)
    want = [eval_numeric(e, {"x": 0.0}) for e in exprs]
    assert [math.copysign(1.0, v) for v in got] == [1.0, 1.0, 1.0, -1.0]
    assert [(v, math.copysign(1.0, v)) for v in got] == \
        [(v, math.copysign(1.0, v)) for v in want]


# Floats at which a two-term float sum is most likely to round, signal or
# sign its zero differently: signed zeros, infinities, a nan, subnormals, the
# extremes, and values whose sums round to even or cancel.
EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
               5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -1.0, 0.1, -0.3, 2.0 ** 53,
               2.0 ** 53 + 2, 1.0 + 2.0 ** -52, 3.0)


def _near_cancelling(rng, count):
    """Pairs (a, b) with b within a few ulps of -a, or with a + b exactly
    between two floats."""
    pairs = []
    for _ in range(count):
        a = rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1023)
        b = -a
        for _ in range(rng.randint(0, 3)):
            b = math.nextafter(b, rng.choice((math.inf, -math.inf)))
        pairs.append((a, b))
        c = rng.uniform(1, 2) * 2.0 ** rng.randint(-60, 60)
        pairs.append((c, math.ulp(c) / 2 * rng.choice((1, -1))))
    return pairs


def test_two_float_sum_is_two_additions():
    # `_numeric_lines` writes a sum of two floats as 0.0 + a + b: sum()'s
    # compensation (Python 3.12+) adds back the error of a + b, which
    # cannot move the rounded result, and its integer start makes
    # -0.0 + -0.0 the 0.0 that 0.0 + a + b gives; checked on each
    # interpreter.  float.hex compares the sign of zero and reads every NaN
    # as "nan": the sign of a NaN that two NaNs give depends on the order in
    # which the C code adds them, which differs even between CPython's own
    # `+` paths
    rng = random.Random(2718)
    pairs = [(a, b) for a in EDGE_FLOATS for b in EDGE_FLOATS]
    pairs += _near_cancelling(rng, 2000)
    pairs += [struct.unpack("<2d", rng.randbytes(16)) for _ in range(4000)]
    for a, b in pairs:
        assert sum((a, b)).hex() == (0.0 + a + b).hex(), (a.hex(), b.hex())


def _two_term_tree(rng, depth=2):
    """A random tree of two-term sums over x, y, z, with products by
    constants: nodes that give a float at every float point, infinite and
    nan ones included."""
    if depth == 0 or rng.random() < 0.3:
        atom = Sym(rng.choice(VARS))
        if rng.random() < 0.3:
            return Product((Rational(rng.choice((-1, 3))), atom))
        return atom
    return Sum(tuple(_two_term_tree(rng, depth - 1) for _ in range(2)))


def test_compiled_two_term_sums_are_bit_identical():
    # compile_numeric against eval_numeric, which adds with sum(), at points
    # holding the edge floats and near-cancelling pairs
    rng = random.Random(1414)
    names = [v.name for v in VARS]
    pairs = _near_cancelling(rng, 200)
    for _ in range(200):
        exprs = [_two_term_tree(rng) for _ in range(3)]
        fn = compile_numeric(exprs, names)
        for _ in range(10):
            if rng.random() < 0.5:
                point = {n: rng.choice(EDGE_FLOATS) for n in names}
            else:
                a, b = rng.choice(pairs)
                point = dict(zip(names, (a, b, rng.choice((a, b, -0.0)))))
            got = fn(*(point[n] for n in names))
            want = [eval_numeric(e, point) for e in exprs]
            assert [v.hex() for v in got] == [v.hex() for v in want]


def test_compiled_arguments_are_converted_on_entry():
    # int arguments, and an argument that no expression reads, give the
    # floats eval_numeric gives, bit for bit; so do products of an empty
    # sum's 0.0
    x, y = (Sym(v) for v in VARS[:2])
    zero = Sum(())
    exprs = [x, Product((x,)), Product((x, y)), Product((Rational(-1), x)),
             Sum((x, Rational(1, 3))), Power(y, -2), Sin(x),
             Product((zero,)), Product((zero, Power(zero, 2))), Product(())]
    fn = compile_numeric(exprs, ["x", "y", "z"])
    for point in ({"x": 3, "y": -2, "z": 7}, {"x": 0, "y": 5, "z": 0}):
        got = fn(point["x"], point["y"], point["z"])
        want = [eval_numeric(e, point) for e in exprs]
        assert all(type(v) is float for v in got + tuple(want))
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_float_evaluators_return_floats_on_empty_sums_and_products():
    # an empty sum is 0.0 and an empty product 1.0: each evaluator gives a
    # float, the same bits, for raw trees over them, alone and under sums,
    # products and powers, and with a symbol at a point that rounds
    x = Sym(VARS[0])
    zero, one = Sum(()), Product(())
    exprs = [zero, one, Sum((zero,)), Sum((zero, zero)),
             Sum((zero, zero, zero)), Sum((zero, one)), Product((zero,)),
             Product((one, one)), Product((zero, Power(zero, 2))),
             Power(zero, 0), Power(one, 3), Power(one, -1),
             Power(Sum((one, one)), -2), Power(Sum((zero, zero)), 3),
             Sum((Power(zero, 0), Power(zero, 0))),
             Sum((Power(zero, 0), Power(zero, 0), Power(one, 0))),
             Sum((zero, x)), Sum((zero, zero, x)), Product((zero, x)),
             Product((one, x)), Sum((Product((zero, x)), Power(one, -1)))]
    for value in (0.1, -0.0):
        want = [eval_numeric(e, {"x": value}) for e in exprs]
        got = compile_numeric(exprs, ["x"])(value)
        env = {VARS[0]: ([value, value], [abs(value)] * 2)}
        batched = [expr.batch_value(e, env, 2, {})[0] for e in exprs]
        assert all(type(v) is float for v in want + list(got))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(type(v) is float for col in batched for v in col)
        assert [[v.hex() for v in col] for col in batched] == \
            [[v.hex()] * 2 for v in want]
    for e in exprs:
        out = sample_expr(e, samples=4)
        assert type(out.max_abs) is float
        if not free_symbols(e):
            assert out.max_abs.hex() == abs(eval_numeric(e, {})).hex()
        assert out == tree_walk_sample(e, 4, expr.DEFAULT_SEED)


def test_compiled_unbound_symbol_fails_at_compile_time():
    x, y = (Sym(v) for v in VARS[:2])
    with pytest.raises(UnboundSymbolError) as err:
        compile_numeric([x * y], ["x"])
    assert err.value.args == ("y",)
    assert compile_numeric([], ["x"])(1.0) == ()


def tree_walk_sample(e, samples, seed):
    """sample_expr walking the tree with eval_numeric at every draw."""
    syms = sorted(free_symbols(e), key=lambda i: (int(i.role), i.name))
    rng = random.Random(seed)
    accepted = rejected = 0
    max_abs = 0.0
    witness = {}
    while accepted < samples:
        point = {s.name: rng.uniform(-SAMPLE_SPAN, SAMPLE_SPAN) for s in syms}
        try:
            v = eval_numeric(e, point)
        except (NearSingularEvaluationError, OverflowError):
            rejected += 1
            if rejected > MAX_REJECTIONS:
                return SampleOutcome(math.inf, point, True)
            continue
        if abs(v) > max_abs:
            max_abs, witness = abs(v), point
        accepted += 1
    return SampleOutcome(max_abs, witness, False)


def _outcome(sample, e, seed):
    """The outcome of sampling `e` 16 times, or the type and arguments of
    the error it raises."""
    try:
        return sample(e, samples=16, seed=seed)
    except ValueError as exc:
        return type(exc), exc.args


def _sampled_cases(rng):
    x, y = (Sym(v) for v in VARS[:2])
    zero = Sum(())                  # 0.0
    exprs = [random_expr(rng) for _ in range(200)]
    exprs += [canonicalize(e) for e in exprs[:60]]
    exprs += [
        Rational(10 ** 400) * x + y,    # a constant too large for a float
        Power(Sum((x, Product((Rational(-1), x)))), -1),   # 1/0 everywhere
        # empty sums under a power and under a product
        Sum((Power(zero, 2), x)), Sum((Power(Sum((zero, zero)), 3), y)),
        Product((zero, x)), Product((zero, Power(zero, 2))),
        Sum((Product((zero, zero)), Power(x, -1))), Power(zero, -1),
        # free of symbols
        Rational(3, 7), Sum((Rational(1), Rational(-2))), Sin(Rational(1)),
        # sin(inf) raises ValueError at some draws, and where no earlier
        # draw aborts the run the error comes out at that draw
        Sin(Product((Rational(10 ** 308), x, x, x))),
        Sum((Power(Power(x, 2) + Rational(-1), -1),
             Cos(Product((Rational(10 ** 308), y, y))))),
    ]
    return exprs


@pytest.mark.hash_order
def test_sample_expr_matches_tree_walk(monkeypatch):
    # sample_expr evaluates each batch of draws node by node; its outcome,
    # the witness point and the abort point included, must be the tree
    # walk's, for raw and canonical trees, a constant too large for a
    # float, empty sums, constants and a run that aborts
    with pytest.raises(OverflowError):
        compile_numeric([Rational(10 ** 400) * Sym(VARS[0])], ["x"])
    aborted = raised = 0
    for seed, e in enumerate(_sampled_cases(random.Random(2024))):
        want = _outcome(tree_walk_sample, e, seed)
        assert _outcome(sample_expr, e, seed) == want
        aborted += isinstance(want, SampleOutcome) and want.aborted
        raised += not isinstance(want, SampleOutcome)
    assert (aborted, raised) == (3, 2)
    # with the guard at 0.5, draws are rejected inside a batch, and the
    # next batch draws only the points still needed; every batch of one
    # call evaluates the one walk of its tree
    monkeypatch.setattr(expr, "SINGULAR_GUARD", 0.5)
    batches = []
    batch = expr._batch_values
    monkeypatch.setattr(expr, "_batch_values", lambda walk, env, n, errors:
                        batches.append(n) or batch(walk, env, n, errors))
    walks = []
    distinct_nodes = expr._distinct_nodes
    monkeypatch.setattr(expr, "_distinct_nodes", lambda *args:
                        walks.append(1) or distinct_nodes(*args))
    for seed, e in enumerate(_sampled_cases(random.Random(4048))):
        want = _outcome(tree_walk_sample, e, seed)
        walks.clear()
        assert _outcome(sample_expr, e, seed) == want
        assert len(walks) == 1
    assert sum(0 < n < 16 for n in batches) > 50


NESTED_GROUP = """
group nested {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (%s + g, %s);
}
"""


def test_compiled_action_nested_at_the_cap():
    # as one nested Python expression, sin(1 + sin(1 + ...)) needs three
    # parentheses a level (`sin(sum((1.0, ...`), past CPython's limit of 200
    half = MAX_NESTING // 2
    spec = parse(NESTED_GROUP % (
        "cos(-" * half + "X1" + ")" * half,
        "sin(1 + " * MAX_NESTING + "X2" + ")" * MAX_NESTING))
    fn = compile_numeric(spec.action, ["g", "X1", "X2"])
    for point in ({"g": 0.5, "X1": 1.25, "X2": -0.75},
                  {"g": -2.0, "X1": 0.0, "X2": 3.0}):
        want = tuple(eval_numeric(a, point) for a in spec.action)
        assert fn(point["g"], point["X1"], point["X2"]) == want



def _residue(v):
    return v.numerator * pow(v.denominator, -1, MODULUS) % MODULUS


@pytest.mark.hash_order
def test_exact_value_is_the_fraction_value_mod_p():
    # at rational points and rational circle points, the value mod p of
    # the canonical tree is the exact value of the raw one, reduced mod p
    rng = random.Random(6101)
    checked = 0
    for _ in range(400):
        e = random_exact_expr(rng)
        c = canonicalize(e)
        env = {v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for v in VARS}
        for a in ANGLES:
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            env[a] = ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
        try:
            want = fraction_value(e, env)
        except ZeroDivisionError:
            continue
        point = {k: tuple(map(_residue, v)) if isinstance(v, tuple)
                 else _residue(v) for k, v in env.items()}
        assert exact_value(c, point, {}) == _residue(want), format_expr(c)
        checked += 1
    assert checked > 300


def test_exact_evaluation_clashes_outside_its_arithmetic():
    x, t = Sym(VARS[0]), Sym(ANGLES[1])
    point = {VARS[0]: 3, ANGLES[1]: expr.circle_point(5)}
    for e in (t * Cos(t), Sin(1 + t), Cos(x), Sin(Rational(1, 2) * t)):
        with pytest.raises(expr.Clash):
            exact_value(canonicalize(e), point, {})
    assert exact_value(canonicalize(Sin(t - t) + Cos(Rational(0))),
                       point, {}) == 1


def test_exact_value_tells_sine_from_cosine():
    # sin(t) at the circle point of u is 2u/(1 + u^2), and the double-angle
    # identity holds for the sine alone
    t = Sym(ANGLES[1])
    for u in (2, 5, 12345):
        point = {ANGLES[1]: expr.circle_point(u)}
        assert exact_value(canonicalize(Sin(t)), point, {}) == \
            2 * u * pow(1 + u * u, -1, MODULUS) % MODULUS
        double = 2 * Sin(t) * Cos(t)
        assert exact_value(canonicalize(Sin(2 * t) - double), point, {}) == 0
        assert exact_value(canonicalize(Cos(2 * t) - double), point, {}) != 0


# X1 moves by g times a function of X2, which the action leaves alone.
NESTED_ARGUMENT = """
group nested_argument {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + g*sin(1 + sin(1 + X2)), X2);
}
"""

SHIFTED_ANGLE = """
group shifted {
  params: g;
  coords: X1, X2;
  identity: (1);
  inverse: (2 - g);
  multiply: (lhs.g + rhs.g - 1);
  action: (X1*cos(g - 1) - X2*sin(g - 1), X1*sin(g - 1) + X2*cos(g - 1));
}
"""


# Clashing groups whose float values reach 1e7 and more: the rounding of
# each side is measured against its size, not against an absolute tol.
SHIFT16 = """
group shift16 {
  params: g;
  coords: X1, X2, X3, X4;
  identity: (0);
  inverse: (-g);
  multiply: (lhs.g + rhs.g);
  action: (X1 + g, X2 + (X1 + g)^16 - X1^16, X3 + g*sin(1 + X4), X4);
}
"""

POWER16_SINE = """
group power16_sine {
  params: g;
  coords: X1, X2, X3;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g)^16, X2*(1 + g) + g*sin(1 + X3), X3);
}
"""


@pytest.mark.hash_order
@pytest.mark.parametrize("source", [NESTED_ARGUMENT, SHIFTED_ANGLE, SHIFT16,
                                    POWER16_SINE],
                         ids=["nested-argument", "angle-identity-1", "shift16",
                              "power16-sine"])
def test_a_clash_samples_every_law_in_floats(source):
    # sin(1 + ...) is no integer sum of angles, and the angle g - 1 has the
    # identity 1, not the angle 0: exact evaluation cannot take these
    # groups, so each law is sampled in floats, as is the check that phi
    # vanishes on the action
    spec = parse(source)
    for seed in (0xC0FFEE, 1, 2):
        report = validate_axioms(spec, seed=seed)
        assert report.ok and report.samples == AXIOM_SAMPLES
        assert [c.verdict for c in report.checks] == ["Numeric"] * 4
        assert all(c.max_residual <= 1e-9 for c in report.checks)
        lie = constraints(spec, seed=seed)
        assert {v for row in lie.on_action for v in row} == \
            {Equivalence.NUMERICALLY_EQUAL}


def _tree_prefix(e):
    """Prefix text walking the canonical tree's nodes."""
    if isinstance(e, Rational):
        return str(e.value)
    if isinstance(e, Sym):
        return e.info.name
    if isinstance(e, (Sum, Product)):
        head = "+" if isinstance(e, Sum) else "*"
        kids = e.terms if isinstance(e, Sum) else e.factors
        return f"({head} " + " ".join(map(_tree_prefix, kids)) + ")"
    if isinstance(e, Power):
        return f"(^ {_tree_prefix(e.base)} {e.exponent})"
    name = "sin" if isinstance(e, Sin) else "cos"
    return f"({name} {_tree_prefix(e.argument)})"


def _tree_infix_term(t):
    """(sign, magnitude text) of one term node."""
    factors = t.factors if isinstance(t, Product) else (t,)
    coeff = Fraction(1)
    if isinstance(factors[0], Rational):
        coeff, factors = factors[0].value, factors[1:]
    parts = [str(abs(coeff))] if abs(coeff) != 1 or not factors else []
    for f in factors:
        if isinstance(f, Power):
            base = f"({_tree_infix(f.base)})" if isinstance(f.base, Sum) \
                else _tree_infix_atom(f.base)
            parts.append(f"{base}^{f.exponent}")
        else:
            parts.append(_tree_infix_atom(f))
    return (-1 if coeff < 0 else 1), "*".join(parts)


def _tree_infix_atom(f):
    if isinstance(f, Rational):
        return str(f.value)
    if isinstance(f, Sym):
        return f.info.name
    name = "sin" if isinstance(f, Sin) else "cos"
    return f"{name}({_tree_infix(f.argument)})"


def _tree_infix(e):
    """Infix text walking the canonical tree's term nodes."""
    out = ""
    for i, t in enumerate(e.terms if isinstance(e, Sum) else (e,)):
        sign, body = _tree_infix_term(t)
        if i:
            out += (" - " if sign < 0 else " + ") + body
        else:
            out = "-" + body if sign < 0 else body
    return out


def _tree_latex_rational(v):
    text = str(abs(v.numerator)) if v.denominator == 1 else \
        f"\\tfrac{{{abs(v.numerator)}}}{{{v.denominator}}}"
    return "-" + text if v < 0 else text


def _tree_latex_atom(f):
    if isinstance(f, Rational):
        return _tree_latex_rational(f.value)
    if isinstance(f, Sym):
        return default_symbol_latex(f.info)
    if isinstance(f, Power):
        if isinstance(f.base, Sum):
            return f"\\left({_tree_latex(f.base)}\\right)^{{{f.exponent}}}"
        return f"({_tree_latex_atom(f.base)})^{{{f.exponent}}}"
    name = "sin" if isinstance(f, Sin) else "cos"
    return f"\\{name}\\left({_tree_latex(f.argument)}\\right)"


def _tree_latex(e):
    """LaTeX text walking the canonical tree's term nodes."""
    out = ""
    for i, t in enumerate(e.terms if isinstance(e, Sum) else (e,)):
        factors = t.factors if isinstance(t, Product) else (t,)
        head = ""
        if isinstance(t, Product) and isinstance(factors[0], Rational):
            v = factors[0].value
            head = "-" if v == -1 else _tree_latex_rational(v) + " "
            factors = factors[1:]
        text = head + " ".join(map(_tree_latex_atom, factors))
        if i:
            out += " " + text if text.startswith("-") else " + " + text
        else:
            out = text
    return out


def test_term_factors_match_the_factor_sort(affine_family):
    # pairs whose exponents are all 1 come back as they are, which must be
    # the order the sort by factor key gives; the others are sorted
    rng = random.Random(7919)
    exprs = [canonicalize(random_expr(rng)) for _ in range(300)]
    exprs += [lam for block in affine_family.block_multipliers
              for lam in block.values()]
    exprs += affine_family.block_lagrangians
    plain = powers = 0
    for e in exprs:
        for _, pairs in monomials(e):
            assert list(term_factors(pairs)) == sorted(pairs, key=_factor_key)
            if all(n == 1 for _, n in pairs):
                plain += len(pairs) > 1
            else:
                powers += 1
    assert plain > 40 and powers > 100


def test_sum_key_is_the_same_before_and_after_its_terms_are_read(
        affine_family):
    # a sum born from its monomials keys them with `_mono_key`, making no
    # term node; once `.terms` is read, the key comes from the term nodes
    rng = random.Random(6007)
    exprs = [canonicalize(random_expr(rng)) for _ in range(200)]
    exprs += [canonicalize(random_exact_expr(rng)) for _ in range(200)]
    exprs += [lam for block in affine_family.block_multipliers
              for lam in block.values()]
    sums = 0
    for e in exprs:
        for c, pairs in [*monomials(e), (0, ())]:
            assert expr._mono_key(c, pairs) == \
                expr._mono_expr(c, pairs).sort_key()
        if not isinstance(e, Sum):
            continue
        sums += 1
        born, read = (polynomial_expr(monomials(e)) for _ in range(2))
        assert born._terms is None and read.terms
        assert born.sort_key() == read.sort_key()
        assert born._terms is None
    assert sums > 100


@pytest.mark.hash_order
def test_prefix_matches_tree_walk():
    # the prefix, infix and LaTeX printers write a sum from its monomials,
    # each term's factors in the order of `expr.term_factors`; walking the
    # term nodes of the canonical tree gives the same text
    rng = random.Random(1729)
    sums = inverse = 0
    for _ in range(400):
        e = _with_inverse(rng, random_expr(rng, depth=rng.randint(2, 4)))
        c = canonicalize(e)
        fresh = canonicalize(e)        # a raw sum canonicalizes afresh
        got = (prefix_expr(fresh), format_expr(fresh), latex_expr(fresh))
        if isinstance(fresh, Sum):
            sums += 1
            assert fresh._terms is None     # no term node was made
        inverse += any(isinstance(atom, Sum) for _, pairs in monomials(c)
                       for atom, _ in pairs)
        assert got == (_tree_prefix(c), _tree_infix(c), _tree_latex(c))
    assert sums > 40 and inverse > 80


def _reference_size(e, point):
    """The size of `e` at `point` by the rule `batch_value` states,
    walking the tree recursively."""
    def size_pow(x, p):
        try:
            return float(abs(x) ** p)
        except (OverflowError, ZeroDivisionError):
            return math.inf
    if isinstance(e, Sym):
        return abs(point[e.info.name])
    if isinstance(e, Rational):
        return size_pow(e.value, 1)
    if isinstance(e, Sum):
        return sum(_reference_size(t, point) for t in e.terms) \
            if e.terms else 0.0
    if isinstance(e, Product):
        return math.prod(_reference_size(f, point) for f in e.factors)
    m = _reference_size(e.base if isinstance(e, Power) else e.argument, point)
    if isinstance(e, Power):
        if e.exponent > 0:
            return size_pow(m, e.exponent)
        return size_pow(eval_numeric(e.base, point), e.exponent - 1) * m
    return max(1.0, m)


@pytest.mark.hash_order
def test_one_walk_gives_the_tree_walks_values_and_sizes():
    # the float walk carries each value with its size; both must be the
    # recursive walk's, bit for bit, at every point that does not raise
    rng = random.Random(3301)
    compared = 0
    for e in _sampled_cases(rng):
        point_rng = random.Random(compared)
        points = [sample_point(point_rng) for _ in range(4)]
        env = {v: ([p[v.name] for p in points],
                   [abs(p[v.name]) for p in points]) for v in VARS}
        errors = {}
        values, sizes = expr.batch_value(e, env, 4, errors)
        for i, point in enumerate(points):
            if i in errors:
                continue
            try:
                want = eval_numeric(e, point)
            except (NearSingularEvaluationError, OverflowError, ValueError):
                continue
            assert struct.pack("d", values[i]) == struct.pack("d", want)
            assert struct.pack("d", sizes[i]) == \
                struct.pack("d", _reference_size(e, point))
            compared += 1
    assert compared > 600
