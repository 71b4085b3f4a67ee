"""Unit behavior of the expression kernel."""

import logging
import math
from fractions import Fraction

import pytest

from lagrforge import (ConventionViolationError, Cos, Equivalence, Power,
                       Product, Rational, Role, Sin, Sum, Sym, SymbolInfo,
                       bundled_source, canonicalize,
                       constraints, differentiate, equals, eval_numeric,
                       format_expr, free_symbols, monomials, parse,
                       substitute, validate_axioms)
from lagrforge.expr import (EQUALS_TOL, RAT0, NearSingularEvaluationError,
                            UnboundSymbolError, batch_value, decide,
                            polynomial_expr, sample_expr, trig_symbols)
from lagrforge.printing import default_symbol_latex

X = SymbolInfo("x", Role.BASE_COORDINATE)
Y = SymbolInfo("y", Role.BASE_COORDINATE)
G = SymbolInfo("g", Role.GROUP_PARAMETER)
x, y, g = Sym(X), Sym(Y), Sym(G)


def test_rational_is_exact():
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
    assert Rational(Fraction(2, 4)) == Rational(1, 2)
    with pytest.raises(TypeError):
        Rational(0.5)


def test_operators_canonicalize_eagerly():
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert x - x == Rational(0)
    assert x * x == x ** 2
    assert 2 * x == x + x
    assert x / x == Rational(1)
    assert -(-x) == x


def test_power_rules():
    assert x ** 0 == Rational(1)
    assert (x ** 2) ** 3 == x ** 6
    assert canonicalize(Power(Rational(2), 3)) == Rational(8)
    with pytest.raises(TypeError):
        Power(x, 0.5)
    # a negative power of a sum stays an atomic factor
    inv = canonicalize(Power(Sum((x, y)), -1))
    assert isinstance(inv, Power) and inv.exponent == -1


def test_sums_expand_to_monomials():
    assert canonicalize(Power(Sum((x, y)), 2)) == x ** 2 + 2 * x * y + y ** 2
    assert canonicalize(Product((Rational(0), Sin(x)))) == Rational(0)
    assert canonicalize(Product((x, Sum((x, y))))) == x ** 2 + x * y


def test_trig_folds_only_at_zero():
    assert canonicalize(Sin(Rational(0))) == Rational(0)
    assert canonicalize(Cos(Rational(0))) == Rational(1)
    assert canonicalize(Sin(Sum((x, Rational(0))))) == canonicalize(Sin(x))
    assert not isinstance(canonicalize(Cos(Rational(1))), Rational)


def test_differentiate():
    assert differentiate(x ** 2 * y, X) == 2 * x * y
    assert differentiate(canonicalize(Sin(x ** 2)), X) == \
        2 * x * canonicalize(Cos(x ** 2))
    assert differentiate(canonicalize(Cos(x)), X) == -canonicalize(Sin(x))
    assert differentiate(x ** -1, X) == -(x ** -2)
    assert differentiate(y, X) == Rational(0)
    # accepts the symbol either as SymbolInfo or as Sym
    assert differentiate(x ** 3, x) == differentiate(x ** 3, X)


def test_substitute():
    assert substitute(x ** 2 + y, {X: y}) == y ** 2 + y
    assert substitute(canonicalize(Sin(x)), {X: g}) == canonicalize(Sin(g))
    # simultaneous: replacements are not re-substituted
    assert substitute(x + 2 * y, {X: y, Y: x}) == y + 2 * x


def test_free_symbols():
    e = x ** 2 * canonicalize(Sin(y + g))
    assert free_symbols(e) == {X, Y, G}


def test_eval_numeric():
    assert eval_numeric(x ** 2 + y, {"x": 2.0, "y": 1.0}) == 5.0
    with pytest.raises(UnboundSymbolError):
        eval_numeric(x + y, {"x": 1.0})
    with pytest.raises(NearSingularEvaluationError):
        eval_numeric(x ** -1, {"x": 1e-6})


def test_equals_three_verdicts():
    assert equals(x, x) == Equivalence.PROVED_EQUAL
    assert equals((x + y) ** 2, x ** 2 + 2 * x * y + y ** 2) == \
        Equivalence.PROVED_EQUAL
    trig = canonicalize(Sin(x)) ** 2 + canonicalize(Cos(x)) ** 2
    assert equals(trig, 1) == Equivalence.EXACTLY_EQUAL
    assert equals(x, y) == Equivalence.PROVED_UNEQUAL
    # an identity scaled by 10^9 is not unequal by rounding, decided at
    # exact points or, for sin(x^2), in floats relative to the values'
    # sizes; a difference of 10^-12 * x is a difference, not rounding
    assert equals(Rational(10 ** 9) * trig, 10 ** 9) != \
        Equivalence.PROVED_UNEQUAL
    square = canonicalize(x * x)
    assert equals(Rational(10 ** 9) * (canonicalize(Sin(square)) ** 2 +
                                       canonicalize(Cos(square)) ** 2),
                  10 ** 9) == Equivalence.NUMERICALLY_EQUAL
    assert equals(Rational(1, 10 ** 12) * x, 0) == Equivalence.PROVED_UNEQUAL


# A valid group that exact evaluation cannot take (sin(1 + X3)), so its laws
# and its constraints on the action are sampled in floats; every float value
# of the constant 10^400 overflows, so sampling what holds it aborts.
HUGE_SINE = """
group huge_sine {
  params: g;
  coords: X1, X2, X3;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g) + 10^400*g, X2*(1 + g) + g*sin(1 + X3), X3);
}
"""


def test_decide_answers_in_equivalence_verdicts(caplog):
    # decide gives each group an Equivalence verdict; equals reports it as
    # it comes, and validate_axioms and constraints in their own terms
    def decided(e):
        syms = sorted(free_symbols(e), key=lambda i: (int(i.role), i.name))
        clashed, ((verdict, out),) = decide(
            lambda evaluate, env, _: [[evaluate((e, RAT0), env)]], syms,
            trig_symbols(e), 5, [5], 16, EQUALS_TOL, lambda _: ("e", "e"))
        return clashed, verdict, out

    square = canonicalize(x * x)
    trig = canonicalize(Sin(x)) ** 2 + canonicalize(Cos(x)) ** 2 - 1
    trig_of_square = (canonicalize(Sin(square)) ** 2 +
                      canonicalize(Cos(square)) ** 2 - 1)
    huge = Rational(10 ** 400) * x + y
    with caplog.at_level(logging.ERROR, logger="lagrforge.expr"):
        cases = [(e, decided(e), equals(e, 0)) for e in
                 (trig, trig_of_square, x - y, canonicalize(Sin(square)),
                  huge)]
    assert [(clashed, verdict, report) for _, (clashed, verdict, _), report
            in cases] == [
        (False, Equivalence.EXACTLY_EQUAL, Equivalence.EXACTLY_EQUAL),
        (True, Equivalence.NUMERICALLY_EQUAL, Equivalence.NUMERICALLY_EQUAL),
        (False, Equivalence.PROVED_UNEQUAL, Equivalence.PROVED_UNEQUAL),
        (True, Equivalence.PROVED_UNEQUAL, Equivalence.PROVED_UNEQUAL),
        (False, Equivalence.UNDECIDED, Equivalence.UNDECIDED)]
    outs = [out for _, (_, _, out), _ in cases]
    assert outs[0] is None
    assert 0 < outs[1].max_abs <= EQUALS_TOL and not outs[1].aborted
    assert outs[2].max_abs > EQUALS_TOL and outs[3].max_abs > EQUALS_TOL
    assert outs[4].aborted and outs[4].max_abs == math.inf

    # validate_axioms: Exact, Numeric, and Failed for a difference and for
    # an aborted run; constraints: ExactlyEqual, NumericallyEqual, and a
    # ConventionViolationError for an aborted run
    so2 = parse(bundled_source("so2"))
    assert [c.verdict for c in validate_axioms(so2).checks] == ["Exact"] * 4
    assert {v for row in constraints(so2).on_action for v in row} == \
        {Equivalence.EXACTLY_EQUAL}
    sine = parse(HUGE_SINE.replace("10^400*g", "g"))
    assert [c.verdict for c in validate_axioms(sine).checks] == \
        ["Numeric"] * 4
    assert {v for row in constraints(sine).on_action for v in row} == \
        {Equivalence.NUMERICALLY_EQUAL}
    skewed = parse(bundled_source("so2").replace("lhs.g + rhs.g",
                                                 "lhs.g + 2*rhs.g"))
    assert "Failed" in [c.verdict for c in validate_axioms(skewed).checks]
    huge_sine = parse(HUGE_SINE)
    with caplog.at_level(logging.ERROR, logger="lagrforge.expr"):
        checks = validate_axioms(huge_sine).checks
        with pytest.raises(ConventionViolationError,
                           match=r"phi\[1\]\[1\] could not be decided on "
                                 "the group action: float sampling aborted"):
            constraints(huge_sine)
    assert [c.verdict for c in checks] == ["Failed", "Numeric"] * 2
    assert [c.max_residual for c in checks[::2]] == [math.inf] * 2
    assert all(c.max_residual <= EQUALS_TOL for c in checks[1::2])


def test_batch_value_sizes_an_empty_product():
    # an empty product is 1 at every point, and so is its size; an empty
    # size column would cut every size above it short
    assert batch_value(Product(()), {}, 2, {}) == ([1.0, 1.0], [1.0, 1.0])
    assert batch_value(Sum((Product(()), x)), {X: ([2.0, -3.0], [2.0, 3.0])},
                       2, {}) == ([3.0, -2.0], [3.0, 4.0])


@pytest.mark.parametrize("samples", [0, -1])
def test_sampling_needs_a_sample(samples):
    # with no draw, sin(x) = x would pass as NumericallyEqual
    with pytest.raises(ValueError, match=f"samples must be at least 1, "
                                         f"got {samples}"):
        sample_expr(x, samples=samples)
    for a, b in ((canonicalize(Sin(x)), x), (x, x)):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            equals(a, b, samples=samples)
    # refused before exact evaluation, which needs no float sample
    spec = parse(bundled_source("so2"))
    for check in (validate_axioms, constraints):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check(spec, samples=samples)


def test_sampling_abort_logs_the_expression_at_debug_only(caplog):
    # every draw of 10^400 overflows a float; the warning names the term
    # count, and only the debug record carries the 401-digit constant
    e = Rational(10 ** 400) * x + y
    with caplog.at_level(logging.DEBUG, logger="lagrforge.expr"):
        assert sample_expr(e).aborted
    (warning,), (debug,) = (
        [r.getMessage() for r in caplog.records if r.levelno == level]
        for level in (logging.WARNING, logging.DEBUG))
    assert warning == ("sampling aborted: 1001 near-singular or overflowing "
                       "rejections for a 2-term expression")
    assert debug == f"sampling aborted on {format_expr(e)}"


def test_role_order_controls_factor_order():
    a = SymbolInfo("a1", Role.FREE_PARAMETER)
    jet = SymbolInfo("x_g", Role.JET_VARIABLE, (1, 1))
    prod = canonicalize(Product((Sym(jet), Sym(a))))
    assert prod.factors == (Sym(a), Sym(jet))


def test_monomials_round_trip():
    e = 2 * x * y + Rational(3) + x ** 2
    monos = monomials(e)
    assert len(monos) == 3
    assert polynomial_expr(list(reversed(monos))) == e
    assert polynomial_expr(monos + [(-c, p) for c, p in monos]) == Rational(0)


def test_format_expr():
    assert format_expr(x + y) == "x + y"
    assert format_expr(-x) == "-x"
    assert format_expr(2 * x) == "2*x"
    assert format_expr(Rational(1, 2) * x) == "1/2*x"
    assert format_expr(x ** 2 - y) == "x^2 - y"
    assert format_expr(canonicalize(Sin(x))) == "sin(x)"
    assert format_expr(x ** -1) == "x^-1"
    assert format_expr(canonicalize(Power(Sum((x, y)), -1))) == "(x + y)^-1"
    assert str(x + y) == "x + y"
    assert "Sum" in repr(x + y)


@pytest.mark.parametrize("name,role,latex", [
    ("a1", Role.FREE_PARAMETER, "\\alpha_{1}"),
    ("a1_", Role.FREE_PARAMETER, "\\alpha'_{1}"),
    ("a12__", Role.FREE_PARAMETER, "\\alpha''_{12}"),
    ("a1_", Role.GROUP_PARAMETER, "\\mathrm{a1\\_}"),
    ("x_", Role.BASE_COORDINATE, "\\mathrm{x\\_}"),
    ("X2'", Role.BASE_COORDINATE, "X'^{2}"),
    ("g", Role.GROUP_PARAMETER, "g"),
], ids=["free", "free-suffixed", "free-two-suffixes", "group-suffixed",
        "coordinate-suffixed", "primed", "plain"])
def test_symbol_latex(name, role, latex):
    # only a free parameter's `_` suffix prints, as a prime
    assert default_symbol_latex(SymbolInfo(name, role)) == latex
