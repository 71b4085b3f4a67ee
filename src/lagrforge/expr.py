"""Exact symbolic expression kernel.

Immutable expression trees over exact rational constants with sine/cosine
treated as opaque atoms.  Canonicalization expands products over sums and
collects like terms, so every expression normalizes to a sum of Laurent
monomials whose atomic factors are symbols, trig atoms, or inverse powers
of irreducible sums.  Each canonical node caches that monomial list once it
is split; a canonical sum is built as that list and makes its term nodes
only when they are read.  `differentiate` and `substitute` work on it term
by term, and a term goes back through a tree only where a sine, cosine or
inverse sum is involved.  No floating point ever enters a tree; numerics
only appear in `eval_numeric`, in the code `compile_numeric` writes (the
compiled orbit of `verify`), and in the batch sampler (`sample_batches`),
each giving the same float bits (an empty sum is 0.0, an empty product 1.0).

Every verdict that values agree (group laws, phi on the action, `equals`)
is an `Equivalence` from `decide`: exact evaluation mod a prime at seeded
points, then floats, one walk of a tree giving each value with its size
(`relative_gap`).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Mapping, Sequence
from enum import Enum, IntEnum
from fractions import Fraction
from functools import partial

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


class SymbolInfo:
    """A named symbol with a fixed role.

    Jet variables carry index (alpha, i); field variables carry (alpha,);
    ansatz unknowns carry (column,), their column in the linear system.
    Names must be unique within one derivation context.  Never mutated:
    the hash is taken once, at construction.
    """

    __slots__ = ("name", "role", "index", "_hash")

    def __init__(self, name: str, role: Role, index: tuple | None = None):
        self.name = name
        self.role = role
        self.index = index
        self._hash = hash((name, role, index))

    def __eq__(self, other):
        if other.__class__ is not SymbolInfo:
            return NotImplemented
        return (self is other or self._hash == other._hash
                and self.name == other.name and self.role == other.role
                and self.index == other.index)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"SymbolInfo(name={self.name!r}, role={self.role!r}, "
                f"index={self.index!r})")

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled copy hashes afresh
        return (SymbolInfo, (self.name, self.role, self.index))


def _fresh_name(name: str, taken: set, mark: str) -> str:
    """`name` with `mark` appended until no name in `taken` equals it; the
    result joins `taken`, so a later call names its symbol apart too."""
    while name in taken:
        name += mark
    taken.add(name)
    return name


Number = (int, Fraction)


class Expr:
    """Base class for immutable expression nodes.

    Nodes are never mutated after construction; `_canonical` marks trees
    already in canonical form so repeated canonicalization is O(1), and
    `_monos` caches a canonical node's monomial tuple once it is split
    (a node `polynomial_expr` builds is born with it), and `_syms` its
    symbols once `free_symbols` reads them.  Each subclass's constructor
    sets these five fields itself, as nodes are built often.
    """

    __slots__ = ("_key", "_hash", "_canonical", "_monos", "_syms")

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
        if isinstance(value, float):
            raise TypeError("expression constants must be exact rationals")
        if denominator is not None:
            value = Fraction(value, denominator)
        elif not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = True

    def _make_key(self):
        return (0, self.value.numerator, self.value.denominator)


class Sym(Expr):
    """Reference to a symbol."""

    __slots__ = ("info",)

    def __init__(self, info: SymbolInfo):
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = True
        self.info = info

    def _make_key(self):
        return (1, int(self.info.role), self.info.name)


class Power(Expr):
    """Integer power; division is a power with negative exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("power exponent must be an integer")
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = False
        self.base = base
        self.exponent = exponent

    def _make_key(self):
        return (2, self.base.sort_key(), self.exponent)


class Trig(Expr):
    """A sine or cosine of its argument; a subclass names the function
    (`fn`, also the name the printers and the numeric code use) and its
    place in the sort order (`rank`)."""

    __slots__ = ("argument",)

    def __init__(self, argument: Expr):
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = False
        self.argument = argument

    def _make_key(self):
        return (3, self.rank, self.argument.sort_key())


class Sin(Trig):
    __slots__ = ()
    fn, rank = "sin", 0


class Cos(Trig):
    __slots__ = ()
    fn, rank = "cos", 1


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Expr]):
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = False
        self.factors = tuple(factors)

    def _make_key(self):
        return (4,) + tuple(f.sort_key() for f in self.factors)


class Sum(Expr):
    __slots__ = ("_terms",)

    def __init__(self, terms: Sequence[Expr]):
        self._key = self._hash = self._monos = self._syms = None
        self._canonical = False
        self._terms = tuple(terms)

    @property
    def terms(self) -> tuple:
        """The summands.  A canonical sum is born as its monomial tuple and
        makes its term nodes on first use."""
        if self._terms is None:
            self._terms = tuple(_mono_expr(c, p) for c, p in self._monos)
        return self._terms

    def _make_key(self):
        if self._terms is None:
            return (5,) + tuple(_mono_key(c, p) for c, p in self._monos)
        return (5,) + tuple(t.sort_key() for t in self._terms)


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
# Trig nodes or sums kept whole under a negative exponent.


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


def _number(v: Number) -> Number:
    """A coefficient as the kernel keeps it: `int` when integral."""
    return v.numerator if v.denominator == 1 else v


def _mono_of(e: Expr):
    """Decompose a canonical non-Sum expression into one monomial."""
    if isinstance(e, Rational):
        return (_number(e.value), ())
    if isinstance(e, Product):
        fs = e.factors
        if isinstance(fs[0], Rational):
            return (_number(fs[0].value),
                    _norm_pairs([_pow_pair(f) for f in fs[1:]]))
        return (1, _norm_pairs([_pow_pair(f) for f in fs]))
    return (1, _norm_pairs([_pow_pair(e)]))


def _factor_key(pair):
    atom, n = pair
    return atom.sort_key() if n == 1 else (2, atom.sort_key(), n)


def term_factors(pairs) -> Sequence:
    """A monomial's (atom, exponent) pairs in the order of the factors of
    its canonical product, which the printers follow: an atom under its
    own sort key, a power under the key of its Power node.  A coefficient
    other than 1 comes before them all.  The pairs come sorted by atom,
    which is that order when every exponent is 1."""
    for _, n in pairs:
        if n != 1:
            return sorted(pairs, key=_factor_key)
    return pairs


def _mono_expr(coeff: Number, pairs) -> Expr:
    if coeff == 0:
        return RAT0
    factors = [atom if n == 1 else _mark(Power(atom, n))
               for atom, n in term_factors(pairs)]
    if not factors:
        return Rational(coeff)
    if coeff != 1:
        factors.insert(0, Rational(coeff))
    if len(factors) == 1:
        return factors[0]
    return _mark(Product(tuple(factors)))


def _mono_key(coeff: Number, pairs):
    """The sort key of `_mono_expr(coeff, pairs)`, with no node built."""
    if coeff == 0:
        return RAT0.sort_key()
    keys = tuple(map(_factor_key, term_factors(pairs)))
    head = (0, coeff.numerator, coeff.denominator)
    if not keys:
        return head
    if coeff != 1:
        return (4, head) + keys
    return keys[0] if len(keys) == 1 else (4,) + keys


def _sig(pairs):
    return tuple([(atom.sort_key(), n) for atom, n in pairs])


def _poly_mul(p1, p2):
    acc = {}
    for c1, a1 in p1:
        for c2, a2 in p2:
            pairs = _norm_pairs(a1 + a2) if a1 and a2 else a1 or a2
            k = _sig(pairs)
            if k in acc:
                acc[k] = (acc[k][0] + c1 * c2, pairs)
            else:
                acc[k] = (c1 * c2, pairs)
    return [(c, p) for c, p in acc.values() if c != 0]


def polynomial_expr(monomials) -> Expr:
    """Canonical sum of monomials whose pairs are already normalized, as
    `monomials` returns them; like terms are collected and sorted once,
    and an integral coefficient is kept as its `int`."""
    acc = {}
    for coeff, pairs in monomials:
        if not coeff:
            continue
        k = _sig(pairs)
        if k in acc:
            acc[k] = (acc[k][0] + coeff, pairs)
        else:
            acc[k] = (coeff, pairs)
    return _sorted_expr(tuple(
        (_number(c), p)
        for _, (c, p) in sorted(acc.items(), key=lambda kv: kv[0]) if c))


def _sorted_expr(monos: tuple) -> Expr:
    """The canonical expression of collected non-zero monomials already in
    signature order, their integral coefficients `int`s."""
    if not monos:
        return RAT0
    if len(monos) == 1:
        e = _mono_expr(*monos[0])
    else:
        # the sum is born as its sorted monomial tuple; `Sum.terms` makes
        # the term nodes only if something reads them
        e = _mark(Sum(()))
        e._terms = None
    e._monos = monos
    return e


def _as_monomials(e: Expr) -> tuple:
    """Monomial tuple of a canonical expression, split once and cached."""
    if e._monos is None:
        e._monos = tuple(_mono_of(t) for t in e.terms) \
            if isinstance(e, Sum) else (_mono_of(e),)
    return e._monos


def _canon_sum(terms) -> Expr:
    monos = []
    for t in terms:
        monos.extend(_as_monomials(canonicalize(t)))
    return polynomial_expr(monos)


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
    pairs = _norm_pairs(pairs)
    if not expansions:
        return _mono_expr(coeff, pairs)
    poly = [(_number(coeff), pairs)]  # an int keeps the expansion in ints
    for s, n in expansions:
        sp = _as_monomials(s)
        for _ in range(n):
            poly = _poly_mul(poly, sp)
    return polynomial_expr(poly)


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
    if isinstance(b, Sum) and exponent > 0:
        return _canon_product((b,) * exponent)
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
    if isinstance(e, Trig):
        a = canonicalize(e.argument)
        if a == RAT0:
            return RAT1 if isinstance(e, Cos) else RAT0
        return _mark(type(e)(a))
    return _mark(e)  # Rational / Sym are born canonical


def monomials(e: Expr):
    """(coefficient, ((atom, exponent), ...)) list of the canonical form;
    a fresh list each call."""
    return list(_as_monomials(canonicalize(e)))


def product_monomials(factors: Sequence[Expr]) -> list:
    """Monomials of the canonical product of `factors`, like terms collected
    and in no set order; `polynomial_expr` of them is that product.

    The factors' monomial lists are multiplied out.  Only where a factor is
    a sum and some factor holds an inverse-sum atom, which `_canon_product`
    could cancel against the sum, is the product tree canonicalized.
    """
    factors = [canonicalize(f) for f in factors]
    out = _times((1, ()), factors)
    if out is None:
        return list(_as_monomials(_canon_product(factors)))
    return out


def _times(mono, factors):
    """The monomial `mono` times the canonical `factors`, multiplied out; None
    where a sum factor could meet an inverse-sum atom, for the caller to
    take the tree path."""
    polys = [_as_monomials(f) for f in factors]
    if any(isinstance(f, Sum) for f in factors) and any(
            isinstance(atom, Sum)
            for _, pairs in itertools.chain((mono,), *polys)
            for atom, _ in pairs):
        return None
    out = [mono]
    for p in polys:
        out = _poly_mul(out, p)
    return out


# ---------------------------------------------------------------------------
# Calculus and structural operations.


def _info_of(s) -> SymbolInfo:
    return s.info if isinstance(s, Sym) else s


def differentiate(e: Expr, s) -> Expr:
    """Partial derivative with respect to one symbol, canonicalized.

    Works term by term on the canonical form.  A term free of the symbol
    drops out, and one holding it only as a plain factor s^n becomes
    n*s^(n-1) times the rest, with no tree built; only a term whose sine,
    cosine or inverse sum depends on the symbol goes through the chain
    rule and canonicalization.  The pieces are collected once, which is
    what canonicalizing the sum of the terms' derivatives does.
    """
    info = _info_of(s)
    out = []
    for coeff, pairs in _as_monomials(canonicalize(e)):
        out.extend(monomial_derivative(coeff, pairs, info))
    return polynomial_expr(out)


def monomial_derivative(coeff: Number, pairs, info: SymbolInfo) -> tuple:
    """The monomials of the derivative of one canonical monomial by the
    symbol `info`, the rule `differentiate` applies term by term: the
    power rule on a plain factor s^n, and the chain rule through the tree
    only where a sine, cosine or inverse-sum atom depends on the symbol,
    which the atom's own symbol set (`free_symbols`) tells."""
    at = None           # position of s^n among the pairs
    chain = False
    for i, (atom, n) in enumerate(pairs):
        if isinstance(atom, Sym):
            a = atom.info
            # most symbols differ by name, which ends the test early
            if a is info or (a.name == info.name and a == info):
                at = i
            continue
        chain = chain or info in free_symbols(atom)
    if chain:
        return _as_monomials(canonicalize(
            _diff(_mono_expr(coeff, pairs), info)))
    if at is None:
        return ()
    atom, n = pairs[at]
    rest = pairs[at + 1:]
    if n != 1:
        rest = ((atom, n - 1),) + rest
    return ((coeff * n, pairs[:at] + rest),)


def _diff(e: Expr, info: SymbolInfo) -> Expr:
    """Raw derivative tree by the chain rule; `differentiate` calls it only
    on terms whose trig or inverse-sum atoms depend on the symbol."""
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
    """Simultaneous substitution into the canonical form; replacements are
    not re-substituted.

    Works term by term, as `differentiate` does.  A term free of the
    replaced symbols is kept, and one holding them only as plain factors
    s^n with n >= 0 is multiplied out against the replacements' monomials
    with no tree built.  A term goes through `_subst` and canonicalization
    when a replaced symbol sits inside a sine, cosine or inverse sum or
    has a negative exponent, or when a replacement that is a sum meets an
    inverse-sum atom, which canonicalization could cancel against it.
    """
    table = {_info_of(k): canonicalize(as_expr(v)) for k, v in mapping.items()}
    e = canonicalize(e)
    out = []
    for coeff, pairs in _as_monomials(e):
        kept = []
        factors = []
        tree = False
        for atom, n in pairs:
            if isinstance(atom, Sym):
                if atom.info not in table:
                    kept.append((atom, n))
                elif n < 0:
                    tree = True
                else:
                    factors.extend([table[atom.info]] * n)
                continue
            tree = tree or not table.keys().isdisjoint(free_symbols(atom))
            kept.append((atom, n))
        if not (tree or factors):
            out.append((coeff, pairs))
            continue
        monos = None if tree else _times((coeff, tuple(kept)), factors)
        if monos is None:
            monos = _as_monomials(canonicalize(
                _subst(_mono_expr(coeff, pairs), table)))
        out.extend(monos)
    return polynomial_expr(out)


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


def free_symbols(e: Expr) -> frozenset:
    """The SymbolInfo of every symbol in `e`.  A node keeps its set as it
    keeps its monomials: the first call fills `_syms`, and each later one
    returns that frozenset."""
    if e._syms is None:
        out = set()
        stack = [e]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                out.add(node.info)
            else:
                stack.extend(_operands(node))
        e._syms = frozenset(out)
    return e._syms


def eval_numeric(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate to a float; every symbol must be bound by name in `env`.

    An empty sum is 0.0 and an empty product 1.0.  Raising a negative
    power of a value with magnitude below the guard threshold raises
    NearSingularEvaluationError.
    """
    if isinstance(e, Rational):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(env[e.info.name])
        except KeyError:
            raise UnboundSymbolError(e.info.name) from None
    if isinstance(e, Sum):
        return sum(eval_numeric(t, env) for t in e.terms) if e.terms else 0.0
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= eval_numeric(f, env)
        return out
    if isinstance(e, Power):
        v = eval_numeric(e.base, env)
        if e.exponent < 0 and abs(v) < SINGULAR_GUARD:
            raise _near_singular(v)
        return v ** e.exponent
    if isinstance(e, Sin):
        return math.sin(eval_numeric(e.argument, env))
    if isinstance(e, Cos):
        return math.cos(eval_numeric(e.argument, env))
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _near_singular(v: float) -> NearSingularEvaluationError:
    return NearSingularEvaluationError(
        f"denominator magnitude {abs(v):.3e} below guard {SINGULAR_GUARD}")


# The globals that the lines of `_numeric_lines` read.
_NUMERIC_GLOBALS = {"_sin": math.sin, "_cos": math.cos,
                   "_near_singular": _near_singular}


def compile_numeric(exprs: Sequence[Expr], names: Sequence[str]):
    """Compile expressions once into a function of positional floats.

    The function takes one value per entry of `names`, in that order,
    converts each with float() once on entry, and returns the tuple of the
    expressions' values.  Its body is the straight-line code of
    `_numeric_lines`, so every value is bit-identical to `eval_numeric`.
    An unbound symbol raises UnboundSymbolError, and a constant too large
    for a float OverflowError, here at compile time.
    """
    args = {name: f"a{i}" for i, name in enumerate(names)}
    body, outs = _numeric_lines(exprs, args, "v")
    source = "\n    ".join(
        [f"def numeric({', '.join(args.values())}):",
         *(f"{a} = float({a})" for a in args.values()), *body,
         f"return ({''.join(o + ', ' for o in outs)})"])
    namespace = dict(_NUMERIC_GLOBALS)
    exec(compile(source, "<compile_numeric>", "exec"), namespace)
    return namespace["numeric"]


def _numeric_lines(exprs: Sequence[Expr], args: Mapping[str, str],
                   prefix: str, fixed: dict | None = None,
                   hoisted: list | None = None):
    """(lines, out_locals): straight-line float code for `exprs`, and the
    local holding each one's value.

    `args` maps a symbol's name to the local holding its float value,
    which the code reads as is.  There is one local per distinct tree
    node, named `prefix` and a number, in post-order, so the code has no
    nesting limit; each node does the float operation `eval_numeric` does,
    in the same order, except that a product starts from its first factor
    (1.0 * a is a for a float a) and a sum of two is `0.0 + a + b`
    (`_sum_code`).  The lines read the names in _NUMERIC_GLOBALS.

    For code inside a loop, `fixed` maps the nodes whose values the loop
    does not change to the float locals holding them, and the lines of
    `hoisted` run before the loop; the calls compiling one loop share both.
    A constant, or a node whose operands are all in `fixed`, is computed
    once in `hoisted`, into a local named `c` and a number, and joins
    `fixed`.  So is a product's longest leading run of two or more factors
    in `fixed`: Python multiplies left to right, so `c * x` does what
    `a * b * x` does when c = a * b.
    """
    local = dict(fixed or {})  # node -> name of the local holding its value
    body = []
    for node, kids in _distinct_nodes(exprs, local):
        if isinstance(node, Sym):
            if node.info.name not in args:
                raise UnboundSymbolError(node.info.name)
            local[node] = args[node.info.name]
            continue
        ops = [local[k] for k in kids]
        lines = body
        if fixed is not None and all(k in fixed for k in kids):
            v = local[node] = fixed[node] = f"c{len(fixed)}"
            lines = hoisted
        else:
            v = local[node] = f"{prefix}{len(local)}"
        if isinstance(node, Rational):
            lines.append(f"{v} = {float(node.value)!r}")
        elif isinstance(node, Sum):
            lines.append(f"{v} = {_sum_code(ops)}")
        elif isinstance(node, Product):
            j = 0   # the factors before kids[j] are all in `fixed`
            while fixed is not None and j < len(kids) and kids[j] in fixed:
                j += 1
            if 2 <= j < len(kids):
                lead = Product(kids[:j])
                if lead not in fixed:
                    local[lead] = fixed[lead] = f"c{len(fixed)}"
                    hoisted.append(f"{fixed[lead]} = {' * '.join(ops[:j])}")
                ops[:j] = [fixed[lead]]
            lines.append(f"{v} = {' * '.join(ops) or '1.0'}")
        elif isinstance(node, Power):
            if node.exponent < 0:
                lines.append(f"if abs({ops[0]}) < {SINGULAR_GUARD!r}: "
                             f"raise _near_singular({ops[0]})")
            lines.append(f"{v} = {ops[0]} ** {node.exponent}")
        else:
            lines.append(f"{v} = _{node.fn}({ops[0]})")
    return body, [local[e] for e in exprs]


def _distinct_nodes(exprs: Sequence[Expr], done):
    """Yield (node, operands) for each distinct node of `exprs` that is not
    in `done`, after its operands, in post-order: the order in which
    `eval_numeric` first finishes each node.  The caller puts each node in
    `done` before taking the next."""
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        node, ready = stack.pop()
        if node in done:
            continue
        kids = _operands(node)
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(kids))
            continue
        yield node, kids


def _walk(e: Expr) -> dict:
    """Each distinct node of `e` mapped to its operands, in
    `_distinct_nodes`' post-order, ending at `e`."""
    walk = {}
    for node, kids in _distinct_nodes([e], walk):
        walk[node] = kids
    return walk


def batch_value(e: Expr, env: Mapping, n: int, errors: dict) -> tuple:
    """`_batch_values` of `e` on its own walk."""
    return _batch_values(_walk(e), env, n, errors)


def _batch_values(walk: Mapping, env: Mapping, n: int, errors: dict) -> tuple:
    """(values, sizes) of a tree at n points, in one walk (`_walk`); `env`
    maps each symbol's SymbolInfo to its (values, sizes).

    Each distinct node is evaluated once over all the points, with the
    float operation the code of `_numeric_lines` does for it, so a value
    is the one `compile_numeric` gives.  The exception a point raises joins
    `errors` unless that point has one, and a point in `errors` gets
    placeholder values.  A size bounds the rounding error of a value to
    first order, in units of the float epsilon and up to a factor of the
    tree's depth: a constant's or a drawn value's size is its magnitude, a
    sum's or a product's the sum or product of its operands' sizes, a
    power's the power of its base's size (for b^p with p < 0, |b|^(p-1)
    times b's size) and a sine's or cosine's the larger of 1 and its
    argument's size.
    """
    values, sizes = {}, {}
    for node, kids in walk.items():
        args = [values[k] for k in kids]
        margs = [sizes[k] for k in kids]
        if isinstance(node, Sym):
            out, size = env[node.info]
        elif isinstance(node, Rational):
            try:
                out = [float(node.value)] * n
            except OverflowError as exc:
                out = [1.0] * n
                for i in range(n):
                    errors.setdefault(i, exc)
            size = [_size_pow(node.value, 1)] * n
        elif isinstance(node, Sum):
            if len(args) == 2:
                out = [0.0 + a + b for a, b in zip(*args)]
            else:
                out = list(map(sum, zip(*args))) if args else [0.0] * n
            size = list(map(sum, zip(*margs))) if margs else [0.0] * n
        elif isinstance(node, Product):
            out = args.pop(0) if args else [1.0] * n
            for col in args:
                out = list(map(operator.mul, out, col))
            size = list(map(math.prod, zip(*margs))) if margs else [1.0] * n
        elif isinstance(node, Power):
            col, p = args[0], node.exponent
            if p > 0:
                size = [_size_pow(m, p) for m in margs[0]]
            else:
                size = [_size_pow(b, p - 1) * m for b, m in zip(col, margs[0])]
            if p < 0 and any(map(SINGULAR_GUARD.__gt__, map(abs, col))):
                col = _column(_guard, [col], errors)
            out = _column(pow, [col, [p] * n], errors)
        else:
            out = _column(getattr(math, node.fn), args, errors)
            size = [max(1.0, m) for m in margs[0]]
        values[node], sizes[node] = out, size
    return out, size


def _guard(v: float) -> float:
    if abs(v) < SINGULAR_GUARD:
        raise _near_singular(v)
    return v


def _column(op, args: list, errors: dict) -> list:
    """list(map(op, *args)) where op may raise at some points: a point that
    raises keeps its first exception in `errors` and, like a point already
    there, gets the placeholder 1.0."""
    try:
        return list(map(op, *args))
    except (ArithmeticError, ValueError):
        pass
    out = []
    for i, xs in enumerate(zip(*args)):
        if i not in errors:
            try:
                out.append(op(*xs))
                continue
            except (ArithmeticError, ValueError) as exc:
                errors[i] = exc
        out.append(1.0)
    return out


def _sum_code(ops: Sequence[str]) -> str:
    """Code for the sum of the float values `ops`, as `eval_numeric` gives
    it: `sum()`, or 0.0 for no value.

    A sum of two is `0.0 + a + b`: `sum()`'s compensation on Python 3.12+
    adds back the error of a + b, which is below half an ulp of the
    rounded sum and cannot move it, and the `0.0` start gives the sign of
    zero `sum()` gives, 0.0 for -0.0 + -0.0.  (The sign of a NaN made from
    two NaNs is outside this: CPython's `+` takes it from the operand its
    C code puts first.)  Other sums stay `sum()` calls."""
    if len(ops) == 2:
        return f"0.0 + {ops[0]} + {ops[1]}"
    return f"sum(({''.join(o + ', ' for o in ops)}))" if ops else "0.0"


def _operands(e: Expr) -> tuple:
    if isinstance(e, (Rational, Sym)):
        return ()
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Trig):
        return (e.argument,)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _size_pow(x, p: int) -> float:
    try:
        return float(abs(x) ** p)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def relative_gap(x: float, y: float, x_size: float, y_size: float) -> float:
    """|x - y| over the larger of 1 and the sizes of x and y."""
    return abs(x - y) / max(1.0, x_size, y_size)


# ---------------------------------------------------------------------------
# Exact evaluation at seeded points, modulo the prime MODULUS.  A symbol's
# value is a residue, or, for an angle, the point (cos, sin) of the unit
# circle, of which a sum of angles is the product.  A rational function
# that is 0 takes the value 0 at every point where no denominator
# vanishes; one that is not takes it at a random point with probability
# at most its degree over MODULUS (Schwartz 1980; Zippel 1979).  Circle
# points are rational, so sines and cosines of integer-linear sums of
# angles obey every identity the real ones do.

MODULUS = 2 ** 61 - 1          # a prime, 3 mod 4: 1 + u^2 is never 0
EXACT_POINTS = 3


class Clash(ValueError):
    """A value exact evaluation cannot take: an angle used other than in
    an integer-linear sin/cos argument, another sin/cos argument, or a
    constant whose denominator MODULUS divides."""


def trig_symbols(e: Expr) -> set:
    """The symbols inside a sine or cosine argument of the canonical `e`."""
    out = set()
    for _, pairs in _as_monomials(canonicalize(e)):
        for atom, _ in pairs:
            if isinstance(atom, Trig):
                out |= free_symbols(atom.argument)
            elif isinstance(atom, Sum):
                out |= trig_symbols(atom)
    return out


def exact_value(e: Expr, env: Mapping, memo: dict) -> int:
    """The value mod MODULUS of the canonical `e` at `env`, which maps each
    symbol's SymbolInfo to a residue or an angle's circle point; `memo`
    keeps the values of atoms at this `env`.  Raises ZeroDivisionError
    where a denominator is 0 at this point, and Clash."""
    total = 0
    for coeff, pairs in _as_monomials(canonicalize(e)):
        v = _exact_number(coeff)
        for atom, n in pairs:
            if atom.__class__ is Sym:
                x = env[atom.info]
                if x.__class__ is tuple:
                    raise Clash(f"angle {atom.info.name} outside sin/cos")
            elif atom in memo:
                x = memo[atom]
            elif isinstance(atom, Trig):
                c, s = exact_angle(atom.argument, env)
                x = memo[atom] = s if isinstance(atom, Sin) else c
            else:                               # a sum kept whole
                x = memo[atom] = exact_value(atom, env, memo)
            if n < 0 and not x:
                raise ZeroDivisionError("a denominator is 0 at this point")
            v = v * (x if n == 1 else pow(x, n, MODULUS)) % MODULUS
        total += v
    return total % MODULUS


def exact_angle(e: Expr, env: Mapping) -> tuple:
    """The circle point (cos, sin) of the canonical `e`, an integer-linear
    sum of angles in `env`; the constant 0 is the angle 0.  Raises Clash
    for any other `e`."""
    c, s = 1, 0
    for coeff, pairs in _as_monomials(canonicalize(e)):
        if not pairs and not coeff:
            continue
        atom, n = pairs[0] if len(pairs) == 1 else (None, 0)
        point = env.get(atom.info) if atom.__class__ is Sym else None
        if n != 1 or coeff.__class__ is not int or point.__class__ is not tuple:
            raise Clash(f"{format_expr(e)} is no integer sum of angles")
        pc, ps = point if coeff == 1 else _turn(point, coeff)
        c, s = (c * pc - s * ps) % MODULUS, (c * ps + s * pc) % MODULUS
    return c, s


def _turn(point: tuple, n: int) -> tuple:
    """The circle point of n times the angle of `point`, by squaring."""
    c, s = point[0], point[1] if n > 0 else -point[1]
    rc, rs = 1, 0
    for bit in bin(abs(n))[2:]:
        rc, rs = (rc * rc - rs * rs) % MODULUS, 2 * rc * rs % MODULUS
        if bit == "1":
            rc, rs = (rc * c - rs * s) % MODULUS, (rc * s + rs * c) % MODULUS
    return rc, rs


def _exact_number(c: Number) -> int:
    if c.__class__ is int:
        return c % MODULUS
    if c.denominator % MODULUS == 0:
        raise Clash(f"the modulus divides the denominator of {c}")
    return c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS


def exact_values(exprs: Sequence[Expr], env: Mapping,
                 angles=()) -> tuple:
    """The values of `exprs` at `env`, each one whose index is in `angles`
    as an angle (`exact_angle`), the others as residues (`exact_value`)."""
    memo = {}
    return tuple(exact_angle(e, env) if j in angles
                 else exact_value(e, env, memo) for j, e in enumerate(exprs))


def circle_point(u: int) -> tuple:
    """The point ((1 - u^2)/(1 + u^2), 2u/(1 + u^2)) of the unit circle
    mod MODULUS, the (cos, sin) of the angle 2 atan(u)."""
    d = pow(1 + u * u, -1, MODULUS)
    return (1 - u * u) * d % MODULUS, 2 * u * d % MODULUS


def at_exact_points(fn, syms: Sequence, angles, seed: int) -> list:
    """[fn(env) for each of EXACT_POINTS seeded points env]: env maps each
    of `syms` to a uniform residue, or, for one in `angles`, to the circle
    point of one.  A point where fn raises ZeroDivisionError is drawn
    again; past MAX_REJECTIONS such points, Clash is raised."""
    rng = random.Random(seed)
    out, redrawn = [], 0
    while len(out) < EXACT_POINTS:
        env = {}
        for s in syms:
            u = rng.randrange(MODULUS)
            env[s] = circle_point(u) if s in angles else u
        try:
            out.append(fn(env))
        except ZeroDivisionError:
            redrawn += 1
            if redrawn > MAX_REJECTIONS:
                raise Clash(f"a denominator is 0 at {redrawn} points") \
                    from None
    return out


# ---------------------------------------------------------------------------
# Decision.  One procedure decides every verdict that values agree: the
# group laws, the check that phi vanishes on the action, and `equals`.


class Equivalence(Enum):
    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    NUMERICALLY_EQUAL = "NumericallyEqual"
    # 0 at EXACT_POINTS seeded points mod MODULUS: not a canonical identity
    EXACTLY_EQUAL = "ExactlyEqual"
    # float sampling aborted: neither equal nor unequal
    UNDECIDED = "Undecided"


class SampleOutcome:
    def __init__(self, max_abs: float, witness: dict, aborted: bool):
        self.max_abs = max_abs
        self.witness = witness
        self.aborted = aborted

    def __eq__(self, other):
        if other.__class__ is not SampleOutcome:
            return NotImplemented
        return vars(self) == vars(other)


def decide(sides, syms: Sequence, angles, seed: int, seeds: Sequence[int],
           samples: int, tol: float, describe) -> tuple:
    """(clashed, outcomes): whether each group's pairs of values agree.

    `sides(evaluate, env, wanted)` gives the (left, right) pairs of each
    group index in `wanted` (of len(seeds) groups), `env` mapping each of
    `syms` to a value and `evaluate(exprs, env, angles=())` giving the
    values of `exprs` there, those at indices in `angles` as angles.

    All groups are first evaluated exactly at the points of
    `at_exact_points(..., syms, angles, seed)`: a group that agrees at each
    is EXACTLY_EQUAL.  Every other group, or every group once exact
    evaluation meets a Clash (`clashed`), is sampled in floats at
    `samples` points from `seeds[i]` (`sample_batches`), its residual at a
    point the largest `relative_gap` of its pairs.  After a Clash,
    residuals within `tol` give NUMERICALLY_EQUAL; a group that differs at
    the exact points or above `tol` is PROVED_UNEQUAL, and one whose
    sampling aborts, naming `describe(i)`, UNDECIDED.  An outcome is (the
    Equivalence, the SampleOutcome or None).  Fewer than one sample is
    refused, even where no float would be drawn.
    """
    _check_samples(samples)
    count = len(seeds)
    try:
        drawn = at_exact_points(
            lambda env: [all(a == b for a, b in pairs) for pairs in
                         sides(exact_values, env, range(count))],
            syms, angles, seed)
        agree = [all(point[i] for point in drawn) for i in range(count)]
    except Clash:
        agree = None
    outcomes = []
    for i in range(count):
        if agree and agree[i]:
            outcomes.append((Equivalence.EXACTLY_EQUAL, None))
            continue
        out = sample_batches(partial(_residuals, sides, i), syms, samples,
                             seeds[i], partial(describe, i))
        outcomes.append((Equivalence.UNDECIDED if out.aborted
                         else Equivalence.NUMERICALLY_EQUAL
                         if agree is None and out.max_abs <= tol
                         else Equivalence.PROVED_UNEQUAL, out))
    return agree is None, outcomes


def _residuals(sides, group: int, env: Mapping, n: int, errors: dict) -> list:
    """The residuals of one group of `decide` at n float points: at each,
    the largest `relative_gap` of its pairs."""
    (pairs,) = sides(lambda exprs, env, angles=(): tuple(
        batch_value(e, env, n, errors) for e in exprs), env, (group,))
    worst = [0.0] * n
    for (a, a_size), (b, b_size) in pairs:
        worst = list(map(max, worst, map(relative_gap, a, b, a_size, b_size)))
    return worst


def sample_expr(e: Expr, samples: int = EQUALS_SAMPLES,
                seed: int = DEFAULT_SEED) -> SampleOutcome:
    """The largest magnitude of `e` at seeded random points, skipping
    near-singular and overflowing draws, and its witness point.

    The points still needed are drawn as one batch and evaluated together
    (`_batch_values`), which gives the values `eval_numeric` gives; then
    the draws are taken in order, as one draw at a time would take them.
    """
    _check_samples(samples)
    walk = _walk(e)   # one walk serves every batch
    return sample_batches(
        lambda env, n, errors: _batch_values(walk, env, n, errors)[0],
        [node.info for node in walk if isinstance(node, Sym)], samples, seed,
        lambda: _subject(e))


def _subject(e: Expr) -> tuple:
    return (f"a {len(e.terms) if isinstance(e, Sum) else 1}-term expression",
            format_expr(e))


def sample_batches(batch, syms, samples: int, seed: int,
                   describe) -> SampleOutcome:
    """The largest magnitude of a seeded float evaluation, and its witness.

    `batch(env, n, errors)` returns the values at n points, `env` mapping
    each of `syms` to its (values, sizes), n values drawn uniformly from
    [-SAMPLE_SPAN, SAMPLE_SPAN] and their magnitudes, and puts in `errors`
    the exception a point raised, by its index.  A point where it raised a
    near-singular or overflow error is drawn again; past
    MAX_REJECTIONS such points sampling aborts and logs, naming what
    `describe()` gives: (the WARNING's subject, the DEBUG detail).
    """
    syms = sorted(syms, key=lambda i: (int(i.role), i.name))
    names = [s.name for s in syms]
    k = len(syms)
    # uniform(-SAMPLE_SPAN, SAMPLE_SPAN)'s own formula, a + (b - a) * random()
    rand = random.Random(seed).random
    low, width = -SAMPLE_SPAN, 2 * SAMPLE_SPAN
    accepted = 0
    rejected = 0
    max_abs = 0.0
    witness: dict = {}
    while accepted < samples:
        n = samples - accepted
        # draw by draw, and within a draw by symbol
        flat = [low + width * rand() for _ in range(n * k)]
        errors = {}
        values = batch({s: (flat[j::k], list(map(abs, flat[j::k])))
                        for j, s in enumerate(syms)}, n, errors)
        for i, v in enumerate(values):
            exc = errors.get(i)
            if exc is None:
                if abs(v) > max_abs:
                    max_abs = abs(v)
                    witness = dict(zip(names, flat[i * k:i * k + k]))
                accepted += 1
                continue
            if not isinstance(exc, (NearSingularEvaluationError,
                                    OverflowError)):
                raise exc
            rejected += 1
            if rejected > MAX_REJECTIONS:
                import logging  # only here: it is slow to import
                log = logging.getLogger(__name__)
                subject, detail = describe()
                log.warning("sampling aborted: %d near-singular or "
                            "overflowing rejections for %s", rejected, subject)
                log.debug("sampling aborted on %s", detail)
                return SampleOutcome(
                    math.inf, dict(zip(names, flat[i * k:i * k + k])), True)
    return SampleOutcome(max_abs, witness, False)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def equals(e1, e2, samples: int = EQUALS_SAMPLES, seed: int = DEFAULT_SEED,
           tol: float = EQUALS_TOL) -> Equivalence:
    """Decide equality: `ProvedEqual` when the canonical difference is 0,
    else `decide`'s verdict on the one pair (difference, 0), as it comes,
    the symbols inside a sine or cosine argument taken as angles:
    `ExactlyEqual`, `NumericallyEqual`, `ProvedUnequal`, or `Undecided`
    for an aborted sampling run.  The float residual is relative to the
    difference's size (`relative_gap`).  Fewer than one sample is refused
    before the canonical tier too."""
    _check_samples(samples)
    diff = canonicalize(Sum((as_expr(e1), Product((RAT_M1, as_expr(e2))))))
    if isinstance(diff, Rational) and diff.value == 0:
        return Equivalence.PROVED_EQUAL
    _, ((verdict, _),) = decide(
        lambda evaluate, env, _: [[evaluate((diff, RAT0), env)]],
        sorted(free_symbols(diff), key=lambda i: (int(i.role), i.name)),
        trig_symbols(diff), seed, [seed], samples, tol,
        lambda _: _subject(diff))
    return verdict


# ---------------------------------------------------------------------------
# Rendering.  A format is (factor, term, whole): the text of an atom to a
# power, factor(atom, n); of a term as it follows another, term(coeff,
# factor texts); of a sum, whole(joined term texts, their count).  A term
# with coefficient 0 is left out, so 0 has none.


def render(e: Expr, fmt) -> str:
    """Text of the canonical form of `e` in `fmt`, written from its
    monomials, so a sum builds no term nodes."""
    factor, term, whole = fmt
    terms = [term(c, [factor(atom, n) for atom, n in term_factors(pairs)])
             for c, pairs in _as_monomials(canonicalize(e)) if c]
    return whole("".join(terms), len(terms))


def render_cuts(exprs, fmt) -> list:
    """For each e of `exprs`, the `fmt` texts of the terms of a * e, cut
    where the free parameter a goes, first after the coefficient:
    `name.join(cut)` renders the len(cut) - 1 terms for an a whose text is
    `name`; a must sort before every atom of e.  Factor texts are made
    once per monomial."""
    factor, term, _ = fmt
    tails, cuts = {}, []
    for e in exprs:
        terms = []
        for c, pairs in _as_monomials(canonicalize(e)):
            if c:
                factors = tails.get(pairs)
                if factors is None:
                    factors = tails[pairs] = ["\0"] + [
                        factor(atom, n) for atom, n in term_factors(pairs)]
                terms.append(term(c, factors))
        cuts.append("".join(terms).split("\0"))
    return cuts


def render_weighted(names, cuts, fmt) -> str:
    """Text in `fmt` of sum_b a_b * e_b from the texts of the a_b and the
    `render_cuts` of the e_b, given in the order of the a_b's names, as
    `render` prints the sum."""
    text = "".join([name.join(cut) for name, cut in zip(names, cuts)])
    return fmt[2](text, sum(map(len, cuts)) - len(cuts))


def _infix_factor(atom: Expr, n: int) -> str:
    if isinstance(atom, Rational):
        text = str(atom.value) if atom.value >= 0 else f"(0 - {-atom.value})"
    elif isinstance(atom, Sym):
        text = atom.info.name
    elif isinstance(atom, Trig):
        text = f"{atom.fn}({format_expr(atom.argument)})"
    elif isinstance(atom, Sum):
        text = f"({format_expr(atom)})"
    else:
        raise TypeError(f"cannot format {type(atom).__name__}")
    return text if n == 1 else f"{text}^{n}"


def _infix_term(coeff: Number, factors: list) -> str:
    c = abs(coeff)
    if c != 1 or not factors:
        factors = [str(c)] + factors
    return (" - " if coeff < 0 else " + ") + "*".join(factors)


def _infix_whole(text: str, count: int) -> str:
    return ("-" if text.startswith(" - ") else "") + text[3:] if count else "0"


# Infix text, reparseable by the group DSL.
INFIX = (_infix_factor, _infix_term, _infix_whole)


def format_expr(e: Expr) -> str:
    return render(e, INFIX)
