"""The expression kernel against SymPy, a computer algebra system that
shares none of its code: canonical forms, derivatives and substitutions
over the seeded corpus of `genexpr.py`, and exact values at rational and
circle points.  Skipped where SymPy is not installed."""

import random
from fractions import Fraction

import pytest

from lagrforge import canonicalize, differentiate, format_expr, substitute
from lagrforge.expr import MODULUS, exact_value

from conftest import _to_sympy
from genexpr import ANGLES, VARS, random_exact_expr, random_expr

sp = pytest.importorskip("sympy")

SYMBOLS = [sp.Symbol(v.name) for v in VARS]


def _generators(e):
    """`e` with each sine and cosine argument in `sp.cancel`'s canonical
    form, so that equal arguments make one generator."""
    return e.replace(lambda a: isinstance(a, (sp.sin, sp.cos)),
                     lambda a: a.func(sp.cancel(a.args[0])))


def _same(got, want) -> bool:
    """Whether the kernel's `got` is SymPy's `want` as a rational function
    with the sines and cosines as generators: no trig identity counts."""
    return sp.cancel(_generators(_to_sympy(got, sp)) - _generators(want)) == 0


def _finite(e) -> bool:
    return not e.has(sp.zoo, sp.nan)


def test_canonical_forms_derivatives_and_substitutions_match_sympy():
    # canonicalize against cancel, differentiate against diff in each
    # variable, and a simultaneous substitution of x and y against subs;
    # a tree with a zero denominator is skipped, and so is a substitution
    # that makes one of the canonical form's denominators 0
    rng = random.Random(7919)
    checked = substituted = 0
    for _ in range(200):
        e = random_expr(rng)
        a, b = random_expr(rng, 2), random_expr(rng, 2)
        want = _to_sympy(e, sp)
        if not _finite(want):
            continue
        c = canonicalize(e)
        assert _same(c, want), format_expr(e)
        for v, s in zip(VARS, SYMBOLS):
            assert _same(differentiate(c, v), sp.diff(want, s)), \
                (format_expr(e), v.name)
        subbed = want.subs({SYMBOLS[0]: _to_sympy(a, sp),
                            SYMBOLS[1]: _to_sympy(b, sp)}, simultaneous=True)
        checked += 1
        if not _finite(subbed):
            continue
        try:
            got = substitute(c, {VARS[0]: a, VARS[1]: b})
        except ZeroDivisionError:
            continue
        assert _same(got, subbed), (format_expr(e), format_expr(a),
                                    format_expr(b))
        substituted += 1
    assert checked > 190 and substituted > 180


def _residue(v):
    return v.numerator * pow(v.denominator, -1, MODULUS) % MODULUS


def test_exact_values_match_sympy():
    # the draws of test_exact_value_is_the_fraction_value_mod_p: SymPy
    # expands each sine and cosine of a sum of angles into those of the
    # angles, puts in the rational point and the circle points, and its
    # value reduced mod p is exact_value's
    rng = random.Random(6101)
    checked = 0
    for _ in range(400):
        e = random_exact_expr(rng)
        c = canonicalize(e)
        env = {v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for v in VARS}
        values = {s: sp.Rational(env[v].numerator, env[v].denominator)
                  for v, s in zip(VARS, SYMBOLS)}
        for a in ANGLES:
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            env[a] = ((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
            angle = sp.Symbol(a.name)
            values[sp.cos(angle)], values[sp.sin(angle)] = (
                sp.Rational(q.numerator, q.denominator) for q in env[a])
        want = sp.expand_trig(_to_sympy(e, sp)).subs(values)
        if not _finite(want):
            continue
        point = {k: tuple(map(_residue, v)) if isinstance(v, tuple)
                 else _residue(v) for k, v in env.items()}
        assert want.is_Rational, format_expr(e)
        assert exact_value(c, point, {}) == \
            _residue(Fraction(int(want.p), int(want.q))), format_expr(e)
        checked += 1
    assert checked > 300
