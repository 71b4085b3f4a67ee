"""Shared fixtures; the two bundled pipelines are solved once per session.

`rebuilt` and `field_values` read a record's fields off its constructor's
signature.  A rebuilt record goes through its constructor, never through
`copy.copy`: a copy would carry the cached properties of the original (a
family's `_first_strong_el`, `multipliers`, a system's `reduced`) into it.
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
