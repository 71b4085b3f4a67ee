"""Seeded property checks for the expression kernel."""

import functools
import operator
import random

from lagrforge import Rational, Sum, canonicalize, differentiate

from genexpr import VARS, random_expr, sample_point, try_eval


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
