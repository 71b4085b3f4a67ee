"""Seeded random expression trees and evaluation helpers for the tests."""

from fractions import Fraction

from lagrforge import Cos, Power, Product, Rational, Role, Sin, Sum, Sym, SymbolInfo
from lagrforge.expr import NearSingularEvaluationError, eval_numeric

VARS = tuple(SymbolInfo(name, Role.BASE_COORDINATE) for name in ("x", "y", "z"))


def random_expr(rng, depth=3):
    """A small random tree over x, y, z with exact rational constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Rational(rng.randint(-4, 4), rng.randint(1, 4))
        return Sym(rng.choice(VARS))
    kind = rng.randrange(5)
    if kind == 0:
        return Sum(tuple(random_expr(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Product(tuple(random_expr(rng, depth - 1)
                             for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Power(random_expr(rng, depth - 1), rng.choice((-2, -1, 2, 3)))
    if kind == 3:
        return Sin(random_expr(rng, depth - 1))
    return Cos(random_expr(rng, depth - 1))


def sample_point(rng):
    # magnitudes in [0.5, 1.5] keep negative powers away from the guard
    return {v.name: rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for v in VARS}


def try_eval(e, point):
    """Evaluate, or None when the point is too close to a singularity."""
    try:
        return eval_numeric(e, point)
    except NearSingularEvaluationError:
        return None


ANGLES = tuple(SymbolInfo(name, Role.GROUP_PARAMETER) for name in ("s", "t"))


def random_exact_expr(rng, depth=3):
    """A small random tree that exact evaluation takes: a polynomial over
    x, y, z with rational constants, with inverse powers, and with sines
    and cosines of integer-linear sums of the angles s and t."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return Rational(rng.randint(-4, 4), rng.randint(1, 4))
        if kind == 1:
            return Sym(rng.choice(VARS))
        trig = rng.choice((Sin, Cos))
        return trig(Sum(tuple(Product((Rational(rng.randint(-2, 2)), Sym(a)))
                              for a in ANGLES)))
    kind = rng.randrange(3)
    if kind == 0:
        return Sum(tuple(random_exact_expr(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Product(tuple(random_exact_expr(rng, depth - 1)
                             for _ in range(rng.randint(2, 3))))
    return Power(random_exact_expr(rng, depth - 1),
                 rng.choice((-2, -1, 2, 3)))


def fraction_value(e, env):
    """Exact value of a raw tree by walking it: `env` maps each symbol to a
    Fraction, an angle to its (cos, sin) Fractions.  ZeroDivisionError
    where a denominator is 0."""
    if isinstance(e, Rational):
        return e.value
    if isinstance(e, Sym):
        return env[e.info]
    if isinstance(e, Sum):
        return sum((fraction_value(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, Product):
        out = Fraction(1)
        for f in e.factors:
            out *= fraction_value(f, env)
        return out
    if isinstance(e, Power):
        return fraction_value(e.base, env) ** e.exponent
    c, s = _angle_value(e.argument, env)
    return s if isinstance(e, Sin) else c


def _angle_value(e, env):
    """(cos, sin) of a raw integer-linear sum of angles, by the addition
    formulas."""
    if isinstance(e, Sym):
        return env[e.info]
    if isinstance(e, Product):           # an integer times an angle
        coeff, angle = e.factors
        c, s = _angle_value(angle, env)
        n = int(coeff.value)
        if n < 0:
            s, n = -s, -n
        out = (Fraction(1), Fraction(0))
        for _ in range(n):
            out = (out[0] * c - out[1] * s, out[0] * s + out[1] * c)
        return out
    out = (Fraction(1), Fraction(0))
    for t in e.terms:
        c, s = _angle_value(t, env)
        out = (out[0] * c - out[1] * s, out[0] * s + out[1] * c)
    return out
