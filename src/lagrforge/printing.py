"""Alternative expression renderings: stable prefix text and LaTeX.

Prefix notation grammar (used verbatim in JSON output):

    expr  := RATIONAL | NAME | "(+ " expr+ ")" | "(* " expr+ ")"
           | "(^ " expr INT ")" | "(sin " expr ")" | "(cos " expr ")"

RATIONAL prints as "n" or "n/d"; operands appear in canonical order, so
equal canonical trees always print to identical strings.
"""

from __future__ import annotations

import re

from .expr import (Cos, Expr, Power, Product, Rational, Role, Sin, Sum, Sym,
                   SymbolInfo, canonicalize)


def prefix_expr(e: Expr) -> str:
    e = canonicalize(e)
    if isinstance(e, Rational):
        return str(e.value)
    if isinstance(e, Sym):
        return e.info.name
    if isinstance(e, Sum):
        return "(+ " + " ".join(prefix_expr(t) for t in e.terms) + ")"
    if isinstance(e, Product):
        return "(* " + " ".join(prefix_expr(f) for f in e.factors) + ")"
    if isinstance(e, Power):
        return f"(^ {prefix_expr(e.base)} {e.exponent})"
    if isinstance(e, Sin):
        return f"(sin {prefix_expr(e.argument)})"
    if isinstance(e, Cos):
        return f"(cos {prefix_expr(e.argument)})"
    raise TypeError(f"cannot render {type(e).__name__}")


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d*)('?)$")


def default_symbol_latex(info: SymbolInfo) -> str:
    """Render a symbol: indexed roles get superscripts/subscripts."""
    if info.role == Role.JET_VARIABLE and info.index and len(info.index) == 2:
        alpha, i = info.index
        return f"X'^{{{alpha}}}_{{{i}}}"
    if info.role == Role.FIELD_VARIABLE and info.index:
        return f"X'^{{{info.index[0]}}}"
    m = _NAME_RE.match(info.name)
    if m:
        stem, digits, prime = m.groups()
        if info.role == Role.FREE_PARAMETER and stem == "a" and digits:
            return f"\\alpha_{{{digits}}}"
        if digits:
            return f"{stem}{prime}^{{{digits}}}"
        return stem + prime
    return "\\mathrm{" + info.name.replace("_", r"\_") + "}"


def latex_expr(e: Expr) -> str:
    return _latex(canonicalize(e))


def _latex(e: Expr) -> str:
    if isinstance(e, Sum):
        out = _latex_term(e.terms[0])
        for t in e.terms[1:]:
            s = _latex_term(t)
            out += " " + s if s.startswith("-") else " + " + s
        return out
    return _latex_term(e)


def _latex_term(e: Expr) -> str:
    if isinstance(e, Rational):
        return _latex_rational(e)
    if isinstance(e, Product):
        parts = []
        head = ""
        for f in e.factors:
            if isinstance(f, Rational):
                if f.value == -1:
                    head = "-"
                else:
                    head = _latex_rational(f)
                continue
            parts.append(_latex_factor(f))
        joined = " ".join(parts)
        if head in ("", "-"):
            return head + joined
        return head + " " + joined
    return _latex_factor(e)


def _latex_rational(e: Rational) -> str:
    v = e.value
    sign = "-" if v < 0 else ""
    v = abs(v)
    if v.denominator == 1:
        return f"{sign}{v.numerator}"
    return f"{sign}\\tfrac{{{v.numerator}}}{{{v.denominator}}}"


def _latex_factor(f: Expr) -> str:
    if isinstance(f, Sym):
        return default_symbol_latex(f.info)
    if isinstance(f, Power):
        if isinstance(f.base, Sum):
            return f"\\left({_latex(f.base)}\\right)^{{{f.exponent}}}"
        return f"({_latex_factor(f.base)})^{{{f.exponent}}}"
    if isinstance(f, Sin):
        return f"\\sin\\left({_latex(f.argument)}\\right)"
    if isinstance(f, Cos):
        return f"\\cos\\left({_latex(f.argument)}\\right)"
    if isinstance(f, (Sum, Product)):
        return f"\\left({_latex(f)}\\right)"
    if isinstance(f, Rational):
        return _latex_rational(f)
    raise TypeError(f"cannot render {type(f).__name__}")
