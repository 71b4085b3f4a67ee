"""Shared fixtures and helpers; the two bundled pipelines are solved once
per session.

`rebuilt` and `field_values` read a record's fields off its constructor's
signature.  A rebuilt record goes through its constructor, never through
`copy.copy`: a copy would carry the cached properties and caches of the
original (a family's `multipliers`, component 1's `el` and `residuals`
and the jet tables the checks keep with it, a system's `reduced`) into it.  `_to_sympy` converts an
expression for the tests that check against SymPy.
"""

import inspect

import pytest

import lagrforge as lf


@pytest.fixture(scope="session")
def so2_spec():
    return lf.parse(lf.bundled_source("so2"))


@pytest.fixture(scope="session")
def so2_lie(so2_spec):
    return lf.constraints(so2_spec)


@pytest.fixture(scope="session")
def so2_family(so2_lie):
    return lf.solve_family(so2_lie, lf.build_ansatz(so2_lie, deg_x=1,
                                                    deg_g=(0, 0)))


@pytest.fixture(scope="session")
def affine_spec():
    return lf.parse(lf.bundled_source("affine1"))


@pytest.fixture(scope="session")
def affine_lie(affine_spec):
    return lf.constraints(affine_spec)


@pytest.fixture(scope="session")
def affine_family(affine_lie):
    return lf.solve_family(affine_lie, lf.build_ansatz(affine_lie, deg_x=1,
                                                       deg_g=(-1, 0)))


def _fields(obj) -> dict:
    return {name: getattr(obj, name)
            for name in inspect.signature(type(obj)).parameters}


def rebuilt(obj, **changes):
    """A new record of obj's type, made by its constructor from obj's
    fields with `changes` applied; an unknown field raises TypeError."""
    return type(obj)(**(_fields(obj) | changes))


def field_values(obj) -> tuple:
    """obj's constructor fields, in order."""
    return tuple(_fields(obj).values())


def _to_sympy(e, sp):
    """The expression as a SymPy expression, symbols by name."""
    if isinstance(e, lf.Rational):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, lf.Sym):
        return sp.Symbol(e.info.name)
    if isinstance(e, lf.Power):
        return sp.Pow(_to_sympy(e.base, sp), e.exponent)
    if isinstance(e, lf.Sum):
        return sp.Add(*(_to_sympy(t, sp) for t in e.terms))
    if isinstance(e, lf.Product):
        return sp.Mul(*(_to_sympy(f, sp) for f in e.factors))
    func = sp.sin if isinstance(e, lf.Sin) else sp.cos
    return func(_to_sympy(e.argument, sp))
