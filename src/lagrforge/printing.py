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
                   _as_monomials, canonicalize, term_factors)


def prefix_expr(e: Expr) -> str:
    """Prefix text of the canonical form, written from its monomials, so
    a sum builds no term nodes."""
    e = canonicalize(e)
    terms = [_prefix_term(c, pairs) for c, pairs in _as_monomials(e)]
    return "(+ " + " ".join(terms) + ")" if isinstance(e, Sum) else terms[0]


def prefix_cut(e: Expr, tails: dict) -> list:
    """The prefix texts of the terms of a * e, space-separated, cut where
    the free parameter a goes: `name.join(cut)` renders them for a named
    `name`, which must sort before every atom of `e`, and there are
    len(cut) - 1 of them.  So a is the first factor after the
    coefficient, and a bare a where that is 1 and there is no other.
    `tails` keeps the text after a by the monomial's pairs, for reuse."""
    terms = []
    for c, pairs in _as_monomials(canonicalize(e)):
        tail = tails.get(pairs)
        if tail is None:
            tail = tails[pairs] = "".join(
                " " + _prefix_factor(atom, n)
                for atom, n in term_factors(pairs)) + ")"
        if c == 1:
            terms.append("(* \0" + tail if pairs else "\0")
        elif c:
            terms.append(f"(* {c} \0{tail}")
    return " ".join(terms).split("\0")


def prefix_weighted(pieces) -> str:
    """Prefix text of sum_b a_b * e_b from (name of a_b, prefix_cut(e_b)),
    given in the order of the a_b's names, as `prefix_expr` prints it."""
    texts, count = [], 0
    for name, cut in pieces:
        if len(cut) > 1:
            texts.append(name.join(cut))
            count += len(cut) - 1
    if count > 1:
        return "(+ " + " ".join(texts) + ")"
    return texts[0] if texts else "0"


def _prefix_term(coeff, pairs) -> str:
    parts = [str(coeff)] if coeff != 1 or not pairs else []
    parts += [_prefix_factor(atom, n) for atom, n in term_factors(pairs)]
    return parts[0] if len(parts) == 1 else "(* " + " ".join(parts) + ")"


def _prefix_factor(atom: Expr, n: int) -> str:
    text = _prefix_atom(atom)
    return text if n == 1 else f"(^ {text} {n})"


def _prefix_atom(atom: Expr) -> str:
    if isinstance(atom, Sym):
        return atom.info.name
    if isinstance(atom, Trig):
        return f"({atom.fn} {prefix_expr(atom.argument)})"
    if isinstance(atom, (Sum, Rational)):
        return prefix_expr(atom)
    raise TypeError(f"cannot render {type(atom).__name__}")


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
    return _latex(canonicalize(e))


def _latex(e: Expr) -> str:
    out = ""
    for coeff, pairs in _as_monomials(e):
        s = _latex_term(coeff, pairs)
        if out:
            out += " " + s if s.startswith("-") else " + " + s
        else:
            out = s
    return out


def _latex_term(coeff, pairs) -> str:
    if not pairs:
        return _latex_rational(coeff)
    head = "" if coeff == 1 else "-" if coeff == -1 \
        else _latex_rational(coeff) + " "
    parts = []
    for atom, n in term_factors(pairs):
        if n == 1:
            parts.append(_latex_factor(atom))
        elif isinstance(atom, Sum):
            parts.append(f"\\left({_latex(atom)}\\right)^{{{n}}}")
        else:
            parts.append(f"({_latex_factor(atom)})^{{{n}}}")
    return head + " ".join(parts)


def _latex_rational(v) -> str:
    sign = "-" if v < 0 else ""
    v = abs(v)
    if v.denominator == 1:
        return f"{sign}{v.numerator}"
    return f"{sign}\\tfrac{{{v.numerator}}}{{{v.denominator}}}"


def _latex_factor(f: Expr) -> str:
    """An atom of a monomial, or the base of its power."""
    if isinstance(f, Sym):
        return default_symbol_latex(f.info)
    if isinstance(f, Trig):
        return f"\\{f.fn}\\left({_latex(f.argument)}\\right)"
    if isinstance(f, Rational):
        return _latex_rational(f.value)
    raise TypeError(f"cannot render {type(f).__name__}")
