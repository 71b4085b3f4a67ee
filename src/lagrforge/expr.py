"""Exact symbolic expression kernel.

Immutable expression trees over exact rational constants with sine/cosine
treated as opaque atoms.  Canonicalization expands products over sums and
collects like terms, so every expression normalizes to a sum of Laurent
monomials whose atomic factors are symbols, trig atoms, or inverse powers
of irreducible sums.  No floating point ever enters a tree; numerics only
appear in `eval_numeric` and the sampling-based equality fallback.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

log = logging.getLogger(__name__)

DEFAULT_SEED = 0xC0FFEE
SINGULAR_GUARD = 1e-3
EQUALS_SAMPLES = 64
EQUALS_TOL = 1e-9
MAX_REJECTIONS = 1000
SAMPLE_SPAN = 2.0


class UnboundSymbolError(KeyError):
    """Numeric evaluation met a symbol missing from the environment."""


class NearSingularEvaluationError(ArithmeticError):
    """Numeric evaluation tripped the small-denominator guard."""


class Role(IntEnum):
    """Symbol roles; the enum order doubles as the symbol sort order."""

    FREE_PARAMETER = 0
    ANSATZ_UNKNOWN = 1
    GROUP_PARAMETER = 2
    BASE_COORDINATE = 3
    FIELD_VARIABLE = 4
    JET_VARIABLE = 5


@dataclass(frozen=True)
class SymbolInfo:
    """A named symbol with a fixed role.

    Jet variables carry index (alpha, i); field variables carry (alpha,).
    Names must be unique within one derivation context.
    """

    name: str
    role: Role
    index: Optional[tuple] = None


Number = Union[int, Fraction]


class Expr:
    """Base class for immutable expression nodes.

    Nodes are never mutated after construction; `_canonical` marks trees
    already in canonical form so repeated canonicalization is O(1).
    """

    __slots__ = ("_key", "_hash", "_canonical")

    def __init__(self) -> None:
        self._key = None
        self._hash = None
        self._canonical = False

    def _make_key(self):
        raise NotImplementedError

    def sort_key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or self.sort_key() == other.sort_key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"<{type(self).__name__} {format_expr(self)}>"

    # Operators canonicalize eagerly, so pipeline code always holds
    # canonical trees.  Raw constructors stay available for the parser
    # and for canonicalization tests.
    def __add__(self, other):
        return canonicalize(Sum((self, as_expr(other))))

    __radd__ = __add__

    def __sub__(self, other):
        return canonicalize(Sum((self, Product((RAT_M1, as_expr(other))))))

    def __rsub__(self, other):
        return canonicalize(Sum((as_expr(other), Product((RAT_M1, self)))))

    def __mul__(self, other):
        return canonicalize(Product((self, as_expr(other))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return canonicalize(Product((self, Power(as_expr(other), -1))))

    def __rtruediv__(self, other):
        return canonicalize(Product((as_expr(other), Power(self, -1))))

    def __pow__(self, exponent: int):
        return canonicalize(Power(self, exponent))

    def __neg__(self):
        return canonicalize(Product((RAT_M1, self)))


class Rational(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)

    def __init__(self, value, denominator=None):
        super().__init__()
        if isinstance(value, float):
            raise TypeError("expression constants must be exact rationals")
        if denominator is not None:
            value = Fraction(value, denominator)
        elif not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value
        self._canonical = True

    def _make_key(self):
        return (0, self.value.numerator, self.value.denominator)


class Sym(Expr):
    """Reference to a symbol."""

    __slots__ = ("info",)

    def __init__(self, info: SymbolInfo):
        super().__init__()
        self.info = info
        self._canonical = True

    def _make_key(self):
        return (1, int(self.info.role), self.info.name)


class Power(Expr):
    """Integer power; division is a power with negative exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        super().__init__()
        if not isinstance(exponent, int):
            raise TypeError("power exponent must be an integer")
        self.base = base
        self.exponent = exponent

    def _make_key(self):
        return (2, self.base.sort_key(), self.exponent)


class Sin(Expr):
    __slots__ = ("argument",)

    def __init__(self, argument: Expr):
        super().__init__()
        self.argument = argument

    def _make_key(self):
        return (3, 0, self.argument.sort_key())


class Cos(Expr):
    __slots__ = ("argument",)

    def __init__(self, argument: Expr):
        super().__init__()
        self.argument = argument

    def _make_key(self):
        return (3, 1, self.argument.sort_key())


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Expr]):
        super().__init__()
        self.factors = tuple(factors)

    def _make_key(self):
        return (4,) + tuple(f.sort_key() for f in self.factors)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Expr]):
        super().__init__()
        self.terms = tuple(terms)

    def _make_key(self):
        return (5,) + tuple(t.sort_key() for t in self.terms)


RAT0 = Rational(0)
RAT1 = Rational(1)
RAT_M1 = Rational(-1)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to an expression")


# ---------------------------------------------------------------------------
# Canonicalization.
#
# Internally an expression is handled as a list of monomials
# (coefficient, ((atom, exponent), ...)) where atoms are canonical Sym,
# Sin, Cos nodes or sums kept whole under a negative exponent.


def _mark(e: Expr) -> Expr:
    e._canonical = True
    return e


def _norm_pairs(pairs):
    """Merge equal atoms, drop zero exponents, sort by atom key."""
    merged = {}
    atoms = {}
    for atom, n in pairs:
        k = atom.sort_key()
        if k in merged:
            merged[k] += n
        else:
            merged[k] = n
            atoms[k] = atom
    items = [(atoms[k], n) for k, n in merged.items() if n != 0]
    items.sort(key=lambda p: p[0].sort_key())
    return tuple(items)


def _pow_pair(factor):
    if isinstance(factor, Power):
        return (factor.base, factor.exponent)
    return (factor, 1)


def _mono_of(e: Expr):
    """Decompose a canonical non-Sum expression into one monomial."""
    if isinstance(e, Rational):
        return (e.value, ())
    if isinstance(e, Product):
        fs = e.factors
        if isinstance(fs[0], Rational):
            return (fs[0].value, _norm_pairs([_pow_pair(f) for f in fs[1:]]))
        return (Fraction(1), _norm_pairs([_pow_pair(f) for f in fs]))
    return (Fraction(1), _norm_pairs([_pow_pair(e)]))


def _mono_expr(coeff: Fraction, pairs) -> Expr:
    if coeff == 0:
        return RAT0
    factors = []
    for atom, n in pairs:
        factors.append(atom if n == 1 else _mark(Power(atom, n)))
    if not factors:
        return Rational(coeff)
    if coeff != 1:
        factors.append(Rational(coeff))
    factors.sort(key=lambda f: f.sort_key())
    if len(factors) == 1:
        return factors[0]
    return _mark(Product(tuple(factors)))


def _sig(pairs):
    return tuple((atom.sort_key(), n) for atom, n in pairs)


def _collect(monomials):
    acc = {}
    for coeff, pairs in monomials:
        if coeff == 0:
            continue
        k = _sig(pairs)
        if k in acc:
            acc[k] = (acc[k][0] + coeff, pairs)
        else:
            acc[k] = (coeff, pairs)
    items = sorted(acc.items(), key=lambda kv: kv[0])
    return [(c, p) for _, (c, p) in items if c != 0]


def _poly_mul(p1, p2):
    acc = {}
    for c1, a1 in p1:
        for c2, a2 in p2:
            pairs = _norm_pairs(a1 + a2)
            k = _sig(pairs)
            if k in acc:
                acc[k] = (acc[k][0] + c1 * c2, pairs)
            else:
                acc[k] = (c1 * c2, pairs)
    return [(c, p) for c, p in acc.values() if c != 0]


def _poly_expr(monomials) -> Expr:
    if not monomials:
        return RAT0
    if len(monomials) == 1:
        return _mono_expr(*monomials[0])
    monomials = sorted(monomials, key=lambda m: _sig(m[1]))
    return _mark(Sum(tuple(_mono_expr(c, p) for c, p in monomials)))


def _as_monomials(e: Expr):
    """Monomial list of a canonical expression."""
    if isinstance(e, Sum):
        return [_mono_of(t) for t in e.terms]
    return [_mono_of(e)]


def _canon_sum(terms) -> Expr:
    flat = []
    for t in terms:
        t = canonicalize(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    return _poly_expr(_collect([_mono_of(t) for t in flat]))


def _canon_product(factors) -> Expr:
    flat = []
    for f in factors:
        f = canonicalize(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = Fraction(1)
    pairs = []
    sum_exp = {}  # sums tracked separately: net positive exponents expand
    for f in flat:
        if isinstance(f, Rational):
            coeff *= f.value
        elif isinstance(f, Sum):
            _bump_sum(sum_exp, f, 1)
        elif isinstance(f, Power) and isinstance(f.base, Sum):
            _bump_sum(sum_exp, f.base, f.exponent)
        else:
            pairs.append(_pow_pair(f))
    if coeff == 0:
        return RAT0
    expansions = []
    for s, n in sum_exp.values():
        if n == 0:
            continue
        if n < 0:
            pairs.append((s, n))
        else:
            expansions.append((s, n))
    base = (coeff, _norm_pairs(pairs))
    if not expansions:
        return _mono_expr(*base)
    poly = [base]
    for s, n in expansions:
        sp = _as_monomials(s)
        for _ in range(n):
            poly = _poly_mul(poly, sp)
    return _poly_expr(_collect(poly))


def _bump_sum(table, s: Sum, n: int):
    k = s.sort_key()
    if k in table:
        table[k][1] += n
    else:
        table[k] = [s, n]


def _canon_power(base, exponent: int) -> Expr:
    b = canonicalize(base)
    if exponent == 0:
        return RAT1
    if exponent == 1:
        return b
    if isinstance(b, Rational):
        if b.value == 0 and exponent < 0:
            return _mark(Power(b, exponent))
        return Rational(b.value ** exponent)
    if isinstance(b, Power):
        return _canon_power(b.base, b.exponent * exponent)
    if isinstance(b, Product):
        return _canon_product(tuple(Power(f, exponent) for f in b.factors))
    if isinstance(b, Sum):
        if exponent < 0:
            return _mark(Power(b, exponent))
        poly = _as_monomials(b)
        out = poly
        for _ in range(exponent - 1):
            out = _poly_mul(out, poly)
        return _poly_expr(_collect(out))
    return _mark(Power(b, exponent))


def canonicalize(e: Expr) -> Expr:
    """Return the canonical form of `e`; idempotent."""
    if e._canonical:
        return e
    if isinstance(e, Sum):
        return _canon_sum(e.terms)
    if isinstance(e, Product):
        return _canon_product(e.factors)
    if isinstance(e, Power):
        return _canon_power(e.base, e.exponent)
    if isinstance(e, Sin):
        a = canonicalize(e.argument)
        if a == RAT0:
            return RAT0
        return _mark(Sin(a))
    if isinstance(e, Cos):
        a = canonicalize(e.argument)
        if a == RAT0:
            return RAT1
        return _mark(Cos(a))
    return _mark(e)  # Rational / Sym are born canonical


def monomials(e: Expr):
    """(coefficient, ((atom, exponent), ...)) list of the canonical form."""
    return _as_monomials(canonicalize(e))


def monomial_expr(coeff: Fraction, pairs) -> Expr:
    """Rebuild a canonical expression from one monomial."""
    return _mono_expr(coeff, _norm_pairs(pairs))


# ---------------------------------------------------------------------------
# Calculus and structural operations.


def _info_of(s) -> SymbolInfo:
    return s.info if isinstance(s, Sym) else s


def differentiate(e: Expr, s) -> Expr:
    """Partial derivative with respect to one symbol, canonicalized."""
    info = _info_of(s)
    return canonicalize(_diff(canonicalize(e), info))


def _diff(e: Expr, info: SymbolInfo) -> Expr:
    if isinstance(e, Rational):
        return RAT0
    if isinstance(e, Sym):
        return RAT1 if e.info == info else RAT0
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, info) for t in e.terms))
    if isinstance(e, Product):
        fs = e.factors
        parts = []
        for i in range(len(fs)):
            parts.append(Product(fs[:i] + (_diff(fs[i], info),) + fs[i + 1:]))
        return Sum(tuple(parts))
    if isinstance(e, Power):
        return Product((Rational(e.exponent),
                        Power(e.base, e.exponent - 1),
                        _diff(e.base, info)))
    if isinstance(e, Sin):
        return Product((Cos(e.argument), _diff(e.argument, info)))
    if isinstance(e, Cos):
        return Product((RAT_M1, Sin(e.argument), _diff(e.argument, info)))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def substitute(e: Expr, mapping: Mapping) -> Expr:
    """Simultaneous substitution; replacements are not re-substituted."""
    table = {_info_of(k): as_expr(v) for k, v in mapping.items()}
    return canonicalize(_subst(e, table))


def _subst(e: Expr, table) -> Expr:
    if isinstance(e, Sym):
        return table.get(e.info, e)
    if isinstance(e, Rational):
        return e
    if isinstance(e, Sum):
        return Sum(tuple(_subst(t, table) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(_subst(f, table) for f in e.factors))
    if isinstance(e, Power):
        return Power(_subst(e.base, table), e.exponent)
    if isinstance(e, Sin):
        return Sin(_subst(e.argument, table))
    if isinstance(e, Cos):
        return Cos(_subst(e.argument, table))
    raise TypeError(f"cannot substitute into {type(e).__name__}")


def free_symbols(e: Expr) -> set:
    out = set()
    _free(e, out)
    return out


def _free(e: Expr, out: set):
    if isinstance(e, Sym):
        out.add(e.info)
    elif isinstance(e, Sum):
        for t in e.terms:
            _free(t, out)
    elif isinstance(e, Product):
        for f in e.factors:
            _free(f, out)
    elif isinstance(e, Power):
        _free(e.base, out)
    elif isinstance(e, (Sin, Cos)):
        _free(e.argument, out)


def eval_numeric(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate to a float; every symbol must be bound by name in `env`.

    Raising a negative power of a value with magnitude below the guard
    threshold raises NearSingularEvaluationError.
    """
    if isinstance(e, Rational):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(env[e.info.name])
        except KeyError:
            raise UnboundSymbolError(e.info.name) from None
    if isinstance(e, Sum):
        return sum(eval_numeric(t, env) for t in e.terms)
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= eval_numeric(f, env)
        return out
    if isinstance(e, Power):
        v = eval_numeric(e.base, env)
        if e.exponent < 0 and abs(v) < SINGULAR_GUARD:
            raise NearSingularEvaluationError(
                f"denominator magnitude {abs(v):.3e} below guard {SINGULAR_GUARD}")
        return v ** e.exponent
    if isinstance(e, Sin):
        return math.sin(eval_numeric(e.argument, env))
    if isinstance(e, Cos):
        return math.cos(eval_numeric(e.argument, env))
    raise TypeError(f"cannot evaluate {type(e).__name__}")


# ---------------------------------------------------------------------------
# Equality decision.


class Equivalence(Enum):
    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    NUMERICALLY_EQUAL = "NumericallyEqual"


@dataclass
class SampleOutcome:
    max_abs: float
    witness: dict
    aborted: bool


def sample_expr(e: Expr, samples: int = EQUALS_SAMPLES,
                seed: int = DEFAULT_SEED) -> SampleOutcome:
    """Evaluate `e` at seeded random points, skipping near-singular draws."""
    syms = sorted(free_symbols(e), key=lambda i: (int(i.role), i.name))
    rng = random.Random(seed)
    accepted = 0
    rejected = 0
    max_abs = 0.0
    witness: dict = {}
    while accepted < samples:
        point = {s.name: rng.uniform(-SAMPLE_SPAN, SAMPLE_SPAN) for s in syms}
        try:
            v = eval_numeric(e, point)
        except NearSingularEvaluationError:
            rejected += 1
            if rejected > MAX_REJECTIONS:
                log.warning(
                    "sampling aborted: %d near-singular rejections for %s",
                    rejected, format_expr(e))
                return SampleOutcome(math.inf, point, True)
            continue
        if abs(v) > max_abs:
            max_abs = abs(v)
            witness = point
        accepted += 1
    return SampleOutcome(max_abs, witness, False)


def equals(e1, e2, samples: int = EQUALS_SAMPLES, seed: int = DEFAULT_SEED,
           tol: float = EQUALS_TOL) -> Equivalence:
    """Decide equality: canonical-tree identity, else seeded sampling."""
    diff = canonicalize(Sum((as_expr(e1), Product((RAT_M1, as_expr(e2))))))
    if isinstance(diff, Rational) and diff.value == 0:
        return Equivalence.PROVED_EQUAL
    outcome = sample_expr(diff, samples=samples, seed=seed)
    if outcome.aborted:
        return Equivalence.PROVED_UNEQUAL
    if outcome.max_abs <= tol:
        return Equivalence.NUMERICALLY_EQUAL
    return Equivalence.PROVED_UNEQUAL


# ---------------------------------------------------------------------------
# Infix formatting (reparseable by the group DSL).


def format_expr(e: Expr) -> str:
    e = canonicalize(e)
    if isinstance(e, Sum):
        out = _fmt_term(e.terms[0])
        for t in e.terms[1:]:
            sign, body = _split_sign(t)
            out += (" - " if sign < 0 else " + ") + body
        return out
    return _fmt_term(e)


def _split_sign(term: Expr):
    """(sign, magnitude text) of a canonical monomial term."""
    if isinstance(term, Rational):
        if term.value < 0:
            return (-1, str(-term.value))
        return (1, str(term.value))
    if isinstance(term, Product):
        factors = term.factors
        sign = 1
        parts = []
        if isinstance(factors[0], Rational):
            c = factors[0].value
            factors = factors[1:]
            if c < 0:
                sign = -1
                c = -c
            if c != 1:
                parts.append(str(c))
        parts.extend(_fmt_factor(f) for f in factors)
        return (sign, "*".join(parts))
    return (1, _fmt_factor(term))


def _fmt_term(term: Expr) -> str:
    sign, body = _split_sign(term)
    return "-" + body if sign < 0 else body


def _fmt_factor(f: Expr) -> str:
    if isinstance(f, Rational):
        return str(f.value) if f.value >= 0 else f"(0 - {-f.value})"
    if isinstance(f, Sym):
        return f.info.name
    if isinstance(f, Power):
        base = _fmt_factor(f.base) if not isinstance(f.base, Sum) \
            else f"({format_expr(f.base)})"
        return f"{base}^{f.exponent}"
    if isinstance(f, Sin):
        return f"sin({format_expr(f.argument)})"
    if isinstance(f, Cos):
        return f"cos({format_expr(f.argument)})"
    if isinstance(f, Sum):
        return f"({format_expr(f)})"
    if isinstance(f, Product):
        return f"({format_expr(f)})"
    raise TypeError(f"cannot format {type(f).__name__}")
