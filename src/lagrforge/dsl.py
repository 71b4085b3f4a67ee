"""Text DSL for finite-dimensional Lie transformation group actions.

Grammar:

    file      := "group" IDENT "{" clause+ "}"
    clause    := ("params" | "coords") ":" IDENT ("," IDENT)* ";"
               | ("identity" | "inverse" | "multiply" | "action")
                 ":" "(" expr ("," expr)* ")" ";"
    expr      := sums/products/quotients, unary minus, integer "^" exponents,
                 sin(expr), cos(expr), INTEGER, INTEGER "/" INTEGER, IDENT,
                 "lhs." IDENT, "rhs." IDENT
    comments  := "#" to end of line

All numeric literals are exact rationals.  `lhs.`/`rhs.` prefixes are only
valid inside the multiply clause and refer to the two group factors.
"""

from __future__ import annotations

import math
import sys

from .expr import (DEFAULT_SEED, EQUALS_TOL, EXACT_POINTS, Cos, Equivalence,
                   Expr, Power, Product, RAT0, RAT_M1, Rational, Role, Sin,
                   Sum, Sym, SymbolInfo, _as_monomials, _fresh_name,
                   _operands, canonicalize, decide, format_expr, substitute,
                   trig_symbols)

CLAUSES = ("params", "coords", "identity", "inverse", "multiply", "action")
RESERVED = set(CLAUSES) | {"group", "sin", "cos", "lhs", "rhs"}
AXIOM_SAMPLES = 100
# Levels of '(', sin(/cos( and unary '-' one formula may nest.  The parser
# and the expression kernel recurse once or more per level, so deeper
# input would exhaust the interpreter stack.
MAX_NESTING = 100
# What one '^' may build.  A positive power n of a k-term sum expands by n
# multiplications, k * C(n + k - 1, k) monomial products at most; any
# power of a coefficient c has about |n| * log2 of c's numerator or
# denominator bits.  Past these the parse would run out of time or memory.
MAX_POWER_PRODUCTS = 100_000
MAX_POWER_BITS = 100_000


class DslError(Exception):
    """Base for DSL problems; always carries a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class GroupSyntaxError(DslError):
    pass


class UndeclaredSymbolError(DslError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"symbol '{name}' is not declared or not permitted "
                         "in this clause", line, col)
        self.name = name


class ArityMismatchError(DslError):
    def __init__(self, clause: str, expected: int, got: int, line: int, col: int):
        super().__init__(f"clause '{clause}' expects {expected} "
                         f"expression(s), got {got}", line, col)
        self.clause = clause


class DuplicateClauseError(DslError):
    def __init__(self, clause: str, line: int, col: int):
        super().__init__(f"duplicate clause '{clause}'", line, col)
        self.clause = clause


# ---------------------------------------------------------------------------
# Tokenizer.

_PUNCT = set("+-*/^(){}:;,.")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident", "int", one of _PUNCT, "eof"
        self.text = text
        self.line = line
        self.col = col


def tokenize(source: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif c.isalpha() or c == "_":
            start, startcol = i, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            out.append(Token("ident", source[start:i], line, startcol))
        elif c.isdecimal():
            start, startcol = i, col
            while i < n and source[i].isdecimal():
                i += 1
                col += 1
            out.append(Token("int", source[start:i], line, startcol))
        elif c in _PUNCT:
            out.append(Token(c, c, line, col))
            i += 1
            col += 1
        else:
            raise GroupSyntaxError(f"unexpected character {c!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


# ---------------------------------------------------------------------------
# Parser.  Formulas are first read into small tuple ASTs and resolved to
# expressions once the declared names are known (clause order is free).


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            found = tok.text or "end of input"
            raise GroupSyntaxError(f"expected {expected}, found '{found}'",
                                   tok.line, tok.col)
        return self.advance()

    def nested(self, tok: Token, inner):
        """Parse `inner()` one nesting level below the one `tok` opens."""
        if self.depth == MAX_NESTING:
            raise GroupSyntaxError(
                f"formula nested deeper than {MAX_NESTING} levels of '(', "
                "sin/cos or unary '-'", tok.line, tok.col)
        self.depth += 1
        node = inner()
        self.depth -= 1
        return node

    # expression grammar -------------------------------------------------
    def expr(self):
        return self.chain("sum", ("+", "-"), self.term)

    def term(self):
        return self.chain("product", ("*", "/"), self.unary)

    def chain(self, kind: str, ops: tuple, operand):
        """One flat node for a run of `ops`, so that a long chain costs no
        recursion; each link is (operator, operand, line, col) at the
        operator, the first one ops[0] at its operand."""
        tok = self.peek()
        links = [(ops[0], operand(), tok.line, tok.col)]
        while self.peek().kind in ops:
            tok = self.advance()
            links.append((tok.kind, operand(), tok.line, tok.col))
        return links[0][1] if len(links) == 1 else (kind, links)

    def unary(self):
        if self.peek().kind == "-":
            return ("neg", self.nested(self.advance(), self.unary))
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("int", "an integer exponent")
            return ("pow", base, sign * _int(tok), tok.line, tok.col)
        return base

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ("int", _int(tok))
        if tok.kind == "(":
            node = self.nested(self.advance(), self.expr)
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("sin", "cos"):
                self.expect("(", f"'(' after {tok.text}")
                node = self.nested(tok, self.expr)
                self.expect(")")
                return ("call", tok.text, node)
            if tok.text in ("lhs", "rhs") and self.peek().kind == ".":
                self.advance()
                name = self.expect("ident", "a parameter name")
                return ("qual", tok.text, name.text, name.line, name.col)
            return ("name", tok.text, tok.line, tok.col)
        raise GroupSyntaxError(
            "expected an expression (integer, identifier, unary '-', "
            f"'(' or sin/cos call), found '{tok.text or 'end of input'}'",
            tok.line, tok.col)


def _int(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:    # past the interpreter's integer-string limit
        raise GroupSyntaxError(
            f"integer literal of {len(tok.text)} digits is longer than the "
            f"{sys.get_int_max_str_digits()} this interpreter reads",
            tok.line, tok.col) from None


# How a chain link enters its Sum or Product.
_LINKS = {"+": lambda e: e, "-": lambda e: Product((RAT_M1, e)),
          "*": lambda e: e, "/": lambda e: Power(e, -1)}


def _resolve(node, env: dict, qualified: bool) -> Expr:
    kind = node[0]
    if kind == "int":
        return Rational(node[1])
    if kind == "name":
        _, name, line, col = node
        if name not in env:
            raise UndeclaredSymbolError(name, line, col)
        return Sym(env[name])
    if kind == "qual":
        _, side, name, line, col = node
        full = f"{side}.{name}"
        if not qualified or full not in env:
            raise UndeclaredSymbolError(full, line, col)
        return Sym(env[full])
    if kind == "neg":
        return Product((RAT_M1, _resolve(node[1], env, qualified)))
    if kind == "pow":
        _, child, n, line, col = node
        base = _resolve(child, env, qualified)
        _check_power(canonicalize(base), n, line, col)
        return Power(base, n)
    if kind == "call":
        arg = _resolve(node[2], env, qualified)
        return Sin(arg) if node[1] == "sin" else Cos(arg)
    if kind in ("sum", "product"):
        parts = tuple(_LINKS[op](_resolve(child, env, qualified))
                      for op, child, _, _ in node[1])
        if kind == "sum":
            return Sum(parts)
        _check_merged_powers(node[1], parts)
        return Product(parts)
    raise AssertionError(f"unknown AST node {kind}")


def _check_merged_powers(links, parts) -> None:
    """A product merges the powers of equal canonical bases, so bound what
    each merged power builds too, at the later factor's exponent, or at
    its '*' where it is a plain sum, a power 1.  A sum's negative power
    stays one atom and cancels no expanded positive power, so the
    exponents of each sign are summed apart."""
    merged = {}
    for (op, child, line, col), part in zip(links, parts):
        if child[0] == "pow":
            _, _, n, line, col = child
            power = part if op == "*" else part.base     # "/" wraps it in ^-1
            base = canonicalize(power.base)
            n = n if op == "*" else -n
        elif op == "*" and isinstance(part, (Sum, Product)):
            base = canonicalize(part)
            if not isinstance(base, Sum):
                continue
            n = 1
        else:
            continue
        key = (base.sort_key(), n > 0)
        if key in merged:
            _check_power(base, merged[key] + n, line, col)
        merged[key] = merged.get(key, 0) + n


def _check_power(base: Expr, n: int, line: int, col: int) -> None:
    """Raise GroupSyntaxError where the canonical `base` to the power n
    would build past MAX_POWER_PRODUCTS or MAX_POWER_BITS."""
    monos = _as_monomials(base)
    if isinstance(base, Sum):
        if n < 0:
            return                   # a sum's inverse stays one atom
        k = len(monos)
        products = k * math.comb(n + k - 1, k)
        if products > MAX_POWER_PRODUCTS:
            raise GroupSyntaxError(
                f"expanding power {n} of a {k}-term sum takes {products} "
                f"monomial products; at most {MAX_POWER_PRODUCTS} are "
                "allowed", line, col)
    bits = abs(n) * max(math.log2(max(abs(c.numerator), c.denominator))
                        for c, _ in monos)
    if bits > MAX_POWER_BITS:
        raise GroupSyntaxError(
            f"power {n} makes a coefficient of about {bits:.0f} bits; at "
            f"most {MAX_POWER_BITS} are allowed", line, col)


def _divides_by_zero(e: Expr) -> bool:
    """Whether a resolved formula raises a base that canonicalizes to 0 to
    a negative power anywhere.  It runs before `canonicalize`, which would
    multiply a zero coefficient through and drop the division."""
    if (isinstance(e, Power) and e.exponent < 0
            and canonicalize(e.base) == RAT0):
        return True
    return any(map(_divides_by_zero, _operands(e)))


# ---------------------------------------------------------------------------
# Specification object.


class GroupActionSpec:
    """Validated group-action description with canonical formulas."""

    def __init__(self, name: str, params: tuple, coords: tuple,
                 identity: tuple, inverse: tuple, multiply: tuple,
                 action: tuple, lhs_params: tuple, rhs_params: tuple):
        self.name = name
        self.params = params
        self.coords = coords
        self.identity = identity
        self.inverse = inverse
        self.multiply = multiply
        self.action = action
        self.lhs_params = lhs_params
        self.rhs_params = rhs_params

    def __eq__(self, other):
        # the fields are the whole state; parse positions are not kept
        if other.__class__ is not GroupActionSpec:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def r(self) -> int:
        return len(self.params)

    @property
    def n(self) -> int:
        return len(self.coords)

    def compose(self, g, h) -> tuple:
        """The product g h: the multiply clause at lhs = g, rhs = h."""
        table = dict(zip(self.lhs_params, g))
        table.update(zip(self.rhs_params, h))
        return tuple(substitute(m, table) for m in self.multiply)

    def angles(self) -> tuple:
        """Indices of the parameters inside a sine or cosine argument of
        some clause, a `lhs.`/`rhs.` copy counting as its parameter."""
        inside = set()
        for e in self.inverse + self.multiply + self.action:
            inside |= trig_symbols(e)
        return tuple(j for j, names in enumerate(zip(
            self.params, self.lhs_params, self.rhs_params))
            if not inside.isdisjoint(names))


def parse(source: str) -> GroupActionSpec:
    """Parse and validate a group description."""
    parser = _Parser(tokenize(source))
    kw = parser.expect("ident", "'group'")
    if kw.text != "group":
        raise GroupSyntaxError(f"expected 'group', found '{kw.text}'",
                               kw.line, kw.col)
    name = parser.expect("ident", "a group name")
    parser.expect("{")
    raw: dict = {}
    positions: dict = {}
    while parser.peek().kind != "}":
        head = parser.expect("ident", "a clause name")
        if head.text not in CLAUSES:
            raise GroupSyntaxError(f"unknown clause '{head.text}'",
                                   head.line, head.col)
        if head.text in raw:
            raise DuplicateClauseError(head.text, head.line, head.col)
        parser.expect(":")
        positions[head.text] = (head.line, head.col)
        if head.text in ("params", "coords"):
            names = [parser.expect("ident", "an identifier")]
            while parser.peek().kind == ",":
                parser.advance()
                names.append(parser.expect("ident", "an identifier"))
            parser.expect(";")
            raw[head.text] = names
        else:
            parser.expect("(")
            exprs = [parser.expr()]
            while parser.peek().kind == ",":
                parser.advance()
                exprs.append(parser.expr())
            parser.expect(")")
            parser.expect(";")
            raw[head.text] = exprs
    closing = parser.expect("}")
    parser.expect("eof", "end of input")

    for clause in CLAUSES:
        if clause not in raw:
            raise GroupSyntaxError(f"missing clause '{clause}'",
                                   closing.line, closing.col)

    seen: dict = {}
    for tok in raw["params"] + raw["coords"]:
        if tok.text in RESERVED:
            raise GroupSyntaxError(f"'{tok.text}' is a reserved name",
                                   tok.line, tok.col)
        if tok.text in seen:
            raise GroupSyntaxError(f"duplicate name '{tok.text}'",
                                   tok.line, tok.col)
        seen[tok.text] = tok
    params = tuple(SymbolInfo(t.text, Role.GROUP_PARAMETER)
                   for t in raw["params"])
    coords = tuple(SymbolInfo(t.text, Role.BASE_COORDINATE, (i + 1,))
                   for i, t in enumerate(raw["coords"]))
    lhs = tuple(SymbolInfo(f"lhs.{p.name}", Role.GROUP_PARAMETER)
                for p in params)
    rhs = tuple(SymbolInfo(f"rhs.{p.name}", Role.GROUP_PARAMETER)
                for p in params)

    env_params = {p.name: p for p in params}
    env_action = dict(env_params)
    env_action.update({c.name: c for c in coords})
    env_multiply = {s.name: s for s in lhs + rhs}

    def build(clause: str, env: dict, expected: int, qualified=False):
        nodes = raw[clause]
        line, col = positions[clause]
        if len(nodes) != expected:
            raise ArityMismatchError(clause, expected, len(nodes), line, col)
        exprs = tuple(_resolve(n, env, qualified) for n in nodes)
        if any(map(_divides_by_zero, exprs)):
            raise GroupSyntaxError(f"clause '{clause}' divides by zero",
                                   line, col)
        return tuple(map(canonicalize, exprs))

    r, n = len(params), len(coords)
    spec = GroupActionSpec(
        name=name.text,
        params=params,
        coords=coords,
        identity=build("identity", {}, r),
        inverse=build("inverse", env_params, r),
        multiply=build("multiply", env_multiply, r, qualified=True),
        action=build("action", env_action, n),
        lhs_params=lhs,
        rhs_params=rhs,
    )
    return spec


def bundled_names() -> tuple:
    """Names of the group definitions shipped with the package."""
    # imported here, not at start-up: only these two functions read it
    from importlib import resources
    root = resources.files(__package__) / "groups"
    return tuple(sorted(p.name[:-4] for p in root.iterdir()
                        if p.name.endswith(".grp")))


def bundled_source(name: str) -> str:
    """Source text of a shipped group definition."""
    from importlib import resources
    path = resources.files(__package__) / "groups" / f"{name}.grp"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no bundled group named '{name}'; "
                       f"available: {', '.join(bundled_names())}") from None


def pretty_print(spec: GroupActionSpec) -> str:
    """Render a spec back to DSL text that reparses to the same spec."""

    def tup(exprs) -> str:
        return "(" + ", ".join(format_expr(e) for e in exprs) + ")"

    lines = [
        f"group {spec.name} {{",
        "  params: " + ", ".join(p.name for p in spec.params) + ";",
        "  coords: " + ", ".join(c.name for c in spec.coords) + ";",
        f"  identity: {tup(spec.identity)};",
        f"  inverse: {tup(spec.inverse)};",
        f"  multiply: {tup(spec.multiply)};",
        f"  action: {tup(spec.action)};",
        "}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Group axiom validation.


class AxiomCheck:
    def __init__(self, axiom: str, description: str, verdict: str,
                 max_residual: float | None = None,
                 witness: dict | None = None):
        self.axiom = axiom
        self.description = description
        self.verdict = verdict  # "Exact" | "Numeric" | "Failed"
        self.max_residual = max_residual
        self.witness = witness


class AxiomReport:
    def __init__(self, group: str, samples: int, seed: int, checks: list):
        self.group = group
        self.samples = samples
        self.seed = seed
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.verdict != "Failed" for c in self.checks)


def _fresh_params(spec: GroupActionSpec, suffix: str) -> tuple:
    """Symbols for a copy of the parameters, named apart from the group's."""
    taken = {s.name for s in spec.params + spec.coords}
    return tuple(Sym(SymbolInfo(_fresh_name(f"{p.name}_{suffix}", taken, "_"),
                                Role.GROUP_PARAMETER)) for p in spec.params)


class _Clauses:
    """The clauses of a group as functions of values in one arithmetic:
    `evaluate(exprs, env, angles)` gives the values of `exprs` at `env`,
    each one whose index is in `angles` as an angle."""

    def __init__(self, spec: GroupActionSpec, evaluate, angles=()):
        self.spec = spec
        self.evaluate = evaluate
        self.angles = angles
        self.identity = evaluate(spec.identity, {}, angles)

    def act(self, g, X) -> tuple:
        env = dict(zip(self.spec.params, g))
        env.update(zip(self.spec.coords, X))
        return self.evaluate(self.spec.action, env, ())

    def compose(self, g, h) -> tuple:
        env = dict(zip(self.spec.lhs_params, g))
        env.update(zip(self.spec.rhs_params, h))
        return self.evaluate(self.spec.multiply, env, self.angles)

    def inverse(self, g) -> tuple:
        return self.evaluate(self.spec.inverse, dict(zip(self.spec.params, g)),
                             self.angles)


# The four laws: (axiom, description, sides), where sides(G, g, h, X) gives
# the two tuples of values the law equates, for the clauses G in one
# arithmetic at parameters g, h and coordinates X.  The identity-action law
# is checked on transformed points, so actions whose image is a proper
# subset of the coordinate space (constant components) still validate.
LAWS = (
    ("identity_action", "action at the identity element is trivial",
     lambda G, g, h, X: (G.act(G.identity, G.act(h, X)), G.act(h, X))),
    ("inverse", "composition with the inverse yields the identity",
     lambda G, g, h, X: (G.compose(g, G.inverse(g)), G.identity)),
    ("composition", "acting twice equals acting by the product",
     lambda G, g, h, X: (G.act(g, G.act(h, X)), G.act(G.compose(g, h), X))),
    ("identity_element", "the identity element is a left unit",
     lambda G, g, h, X: (G.compose(G.identity, g), g)),
)


def validate_axioms(spec: GroupActionSpec, samples: int = AXIOM_SAMPLES,
                    seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> AxiomReport:
    """Check the four action/group laws, each side evaluated as values,
    never composed as a tree, each law one group of `expr.decide`.

    `Exact`: the sides agree at EXACT_POINTS seeded points mod MODULUS, so
    a false law passes with probability at most (degree / MODULUS) **
    EXACT_POINTS; not a canonical identity.  `Failed`: they differ, and
    the float evaluation of the law at `samples` points gives the witness
    and largest residual.  Where exact evaluation meets a Clash, every law
    is sampled in floats instead: `Numeric` within `tol`, else `Failed`.
    A float residual is relative to the sizes of the law's sides, as
    `expr.relative_gap` gives it.  Law i samples at seed + 101 * i,
    from i = 1.
    """
    h = tuple(s.info for s in _fresh_params(spec, "h"))
    angles = spec.angles()

    def sides(evaluate, env, wanted):
        G = _Clauses(spec, evaluate, angles)
        ghX = [tuple(env[s] for s in syms) for syms in (spec.params, h,
                                                         spec.coords)]
        return [list(zip(*LAWS[law][2](G, *ghX))) for law in wanted]

    clashed, outcomes = decide(
        sides, spec.params + h + spec.coords,
        {s for j in angles for s in (spec.params[j], h[j])}, seed,
        [seed + (law + 1) * 101 for law in range(len(LAWS))], samples, tol,
        lambda law: (f"the {LAWS[law][0]} law of {spec.name}",) * 2)
    checks = [AxiomCheck(*law[:2], "Exact")
              if verdict == Equivalence.EXACTLY_EQUAL else
              AxiomCheck(*law[:2], "Numeric", out.max_abs)
              if verdict == Equivalence.NUMERICALLY_EQUAL
              else AxiomCheck(*law[:2], "Failed", out.max_abs, out.witness)
              for law, (verdict, out) in zip(LAWS, outcomes)]
    return AxiomReport(spec.name, samples if clashed else EXACT_POINTS, seed,
                       checks)
