"""Alternative expression renderings: stable prefix text and LaTeX.

Prefix notation grammar (used verbatim in JSON output):

    expr  := RATIONAL | NAME | "(+ " expr+ ")" | "(* " expr+ ")"
           | "(^ " expr INT ")" | "(sin " expr ")" | "(cos " expr ")"

RATIONAL prints as "n" or "n/d"; operands appear in canonical order, so
equal canonical trees always print to identical strings.
"""

from __future__ import annotations

import re

from .expr import (Expr, Rational, Role, Sum, Sym, SymbolInfo, Trig,
                   render)


def prefix_expr(e: Expr) -> str:
    """Prefix text of the canonical form of `e`."""
    return render(e, PREFIX)


def _prefix_factor(atom: Expr, n: int) -> str:
    if isinstance(atom, Sym):
        text = atom.info.name
    elif isinstance(atom, Trig):
        text = f"({atom.fn} {prefix_expr(atom.argument)})"
    elif isinstance(atom, (Sum, Rational)):
        text = prefix_expr(atom)
    else:
        raise TypeError(f"cannot render {type(atom).__name__}")
    return text if n == 1 else f"(^ {text} {n})"


def _prefix_term(coeff, factors: list) -> str:
    if coeff != 1 or not factors:
        return f" (* {coeff} {' '.join(factors)})" if factors else f" {coeff}"
    if len(factors) == 1:
        return " " + factors[0]
    return " (* " + " ".join(factors) + ")"


def _prefix_whole(text: str, count: int) -> str:
    return "(+" + text + ")" if count > 1 else text[1:] if count else "0"


PREFIX = (_prefix_factor, _prefix_term, _prefix_whole)


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d*)('?)(_*)$")


def default_symbol_latex(info: SymbolInfo) -> str:
    """Render a symbol: indexed roles get superscripts/subscripts."""
    if info.role == Role.JET_VARIABLE and info.index and len(info.index) == 2:
        alpha, i = info.index
        return f"X'^{{{alpha}}}_{{{i}}}"
    if info.role == Role.FIELD_VARIABLE and info.index:
        return f"X'^{{{info.index[0]}}}"
    m = _NAME_RE.match(info.name)
    if m:
        stem, digits, prime, marks = m.groups()
        if info.role == Role.FREE_PARAMETER and stem == "a" and digits:
            # the `_`s that name a free parameter apart from the group's
            # symbols print as primes
            return "\\alpha" + "'" * len(marks) + f"_{{{digits}}}"
        if not marks:
            return f"{stem}{prime}^{{{digits}}}" if digits else stem + prime
    return "\\mathrm{" + info.name.replace("_", r"\_") + "}"


def latex_expr(e: Expr) -> str:
    return render(e, LATEX)


def _latex_factor(atom: Expr, n: int) -> str:
    if isinstance(atom, Sym):
        text = default_symbol_latex(atom.info)
    elif isinstance(atom, Trig):
        text = f"\\{atom.fn}\\left({latex_expr(atom.argument)}\\right)"
    elif isinstance(atom, Rational):
        text = _latex_rational(atom.value)
    elif isinstance(atom, Sum) and n != 1:
        return f"\\left({latex_expr(atom)}\\right)^{{{n}}}"
    else:
        raise TypeError(f"cannot render {type(atom).__name__}")
    return text if n == 1 else f"({text})^{{{n}}}"


def _latex_term(coeff, factors: list) -> str:
    head = _latex_rational(coeff)
    if factors:
        head = "" if coeff == 1 else "-" if coeff == -1 else head + " "
    text = head + " ".join(factors)
    return " " + text if text.startswith("-") else " + " + text


def _latex_whole(text: str, count: int) -> str:
    return (text[3:] if text.startswith(" + ") else text[1:]) if count else "0"


def _latex_rational(v) -> str:
    sign = "-" if v < 0 else ""
    v = abs(v)
    if v.denominator == 1:
        return f"{sign}{v.numerator}"
    return f"{sign}\\tfrac{{{v.numerator}}}{{{v.denominator}}}"


LATEX = (_latex_factor, _latex_term, _latex_whole)
