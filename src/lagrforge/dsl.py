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

from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .expr import (DEFAULT_SEED, EQUALS_TOL, Cos, Expr, Power, Product,
                   RAT0, RAT_M1, Rational, Role, Sin, Sum, Sym, SymbolInfo,
                   canonicalize, format_expr, sample_expr, substitute)

CLAUSES = ("params", "coords", "identity", "inverse", "multiply", "action")
RESERVED = set(CLAUSES) | {"group", "sin", "cos", "lhs", "rhs"}
AXIOM_SAMPLES = 100
# Levels of '(', sin(/cos( and unary '-' one formula may nest.  The parser
# and the expression kernel recurse once or more per level, so deeper
# input would exhaust the interpreter stack.
MAX_NESTING = 100


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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", one of _PUNCT, "eof"
    text: str
    line: int
    col: int


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
        elif c.isdigit():
            start, startcol = i, col
            while i < n and source[i].isdigit():
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
        recursion; each link is (operator, operand), the first one ops[0]."""
        links = [(ops[0], operand())]
        while self.peek().kind in ops:
            links.append((self.advance().kind, operand()))
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
            return ("pow", base, sign * int(tok.text))
        return base

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ("int", int(tok.text))
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
        return Power(_resolve(node[1], env, qualified), node[2])
    if kind == "call":
        arg = _resolve(node[2], env, qualified)
        return Sin(arg) if node[1] == "sin" else Cos(arg)
    if kind in ("sum", "product"):
        parts = tuple(_LINKS[op](_resolve(child, env, qualified))
                      for op, child in node[1])
        return Sum(parts) if kind == "sum" else Product(parts)
    raise AssertionError(f"unknown AST node {kind}")


def _divides_by_zero(e: Expr) -> bool:
    """Whether a resolved formula raises a base that canonicalizes to 0 to
    a negative power anywhere.  It runs before `canonicalize`, which would
    multiply a zero coefficient through and drop the division."""
    if isinstance(e, Power):
        return ((e.exponent < 0 and canonicalize(e.base) == RAT0)
                or _divides_by_zero(e.base))
    if isinstance(e, (Sin, Cos)):
        return _divides_by_zero(e.argument)
    if isinstance(e, Sum):
        return any(map(_divides_by_zero, e.terms))
    if isinstance(e, Product):
        return any(map(_divides_by_zero, e.factors))
    return False


# ---------------------------------------------------------------------------
# Specification object.


@dataclass
class GroupActionSpec:
    """Validated group-action description with canonical formulas."""

    name: str
    params: tuple
    coords: tuple
    identity: tuple
    inverse: tuple
    multiply: tuple
    action: tuple
    lhs_params: tuple
    rhs_params: tuple

    @property
    def r(self) -> int:
        return len(self.params)

    @property
    def n(self) -> int:
        return len(self.coords)


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
    root = resources.files(__package__) / "groups"
    return tuple(sorted(p.name[:-4] for p in root.iterdir()
                        if p.name.endswith(".grp")))


def bundled_source(name: str) -> str:
    """Source text of a shipped group definition."""
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


@dataclass
class AxiomCheck:
    axiom: str
    description: str
    verdict: str  # "Symbolic" | "Numeric" | "Failed"
    max_residual: Optional[float] = None
    witness: Optional[dict] = None


@dataclass
class AxiomReport:
    group: str
    samples: int
    seed: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.verdict != "Failed" for c in self.checks)


def _fresh_params(spec: GroupActionSpec, suffix: str):
    declared = {s.name for s in spec.params + spec.coords}
    fresh = []
    for p in spec.params:
        name = f"{p.name}_{suffix}"
        while name in declared:
            name += "_"
        declared.add(name)
        fresh.append(SymbolInfo(name, Role.GROUP_PARAMETER))
    return tuple(fresh)


def validate_axioms(spec: GroupActionSpec, samples: int = AXIOM_SAMPLES,
                    seed: int = DEFAULT_SEED, tol: float = EQUALS_TOL) -> AxiomReport:
    """Check the four action/group laws, symbolically where possible.

    The identity-action law is checked on transformed points, so actions
    whose image is a proper subset of the coordinate space (constant
    components) still validate.
    """
    h = _fresh_params(spec, "h")
    h_map = {p: Sym(hp) for p, hp in zip(spec.params, h)}
    id_map = {p: e for p, e in zip(spec.params, spec.identity)}

    # S_h X with independent parameters h
    inner = [substitute(a, h_map) for a in spec.action]
    inner_map = {c: e for c, e in zip(spec.coords, inner)}

    checks = []

    def run(axiom: str, description: str, diffs, offset: int):
        if all(isinstance(d, Rational) and d.value == 0 for d in diffs):
            checks.append(AxiomCheck(axiom, description, "Symbolic"))
            return
        worst = 0.0
        for j, d in enumerate(diffs):
            out = sample_expr(d, samples=samples, seed=seed + offset * 101 + j)
            if out.aborted or out.max_abs > tol:
                checks.append(AxiomCheck(axiom, description, "Failed",
                                         max_residual=out.max_abs,
                                         witness=out.witness))
                return
            worst = max(worst, out.max_abs)
        checks.append(AxiomCheck(axiom, description, "Numeric",
                                 max_residual=worst))

    # (a) the identity element acts trivially on every transformed point
    id_on = [substitute(a, {**id_map, **inner_map}) for a in spec.action]
    run("identity_action", "action at the identity element is trivial",
        [l - r for l, r in zip(id_on, inner)], 1)

    # (b) multiply(g, inverse(g)) = identity
    inv_map = {rp: e for rp, e in zip(spec.rhs_params, spec.inverse)}
    inv_map.update({lp: Sym(p) for lp, p in zip(spec.lhs_params, spec.params)})
    prod_inv = [substitute(m, inv_map) for m in spec.multiply]
    run("inverse", "composition with the inverse yields the identity",
        [l - r for l, r in zip(prod_inv, spec.identity)], 2)

    # (c) S_g(S_h X) = S_{g h} X
    left = [substitute(a, inner_map) for a in spec.action]
    gh_map = {lp: Sym(p) for lp, p in zip(spec.lhs_params, spec.params)}
    gh_map.update({rp: Sym(hp) for rp, hp in zip(spec.rhs_params, h)})
    gh = [substitute(m, gh_map) for m in spec.multiply]
    right = [substitute(a, {p: e for p, e in zip(spec.params, gh)})
             for a in spec.action]
    run("composition", "acting twice equals acting by the product",
        [l - r for l, r in zip(left, right)], 3)

    # (d) multiply(identity, g) = g
    lid_map = {lp: e for lp, e in zip(spec.lhs_params, spec.identity)}
    lid_map.update({rp: Sym(p) for rp, p in zip(spec.rhs_params, spec.params)})
    lid = [substitute(m, lid_map) for m in spec.multiply]
    run("identity_element", "the identity element is a left unit",
        [l - Sym(p) for l, p in zip(lid, spec.params)], 4)

    return AxiomReport(spec.name, samples, seed, checks)
