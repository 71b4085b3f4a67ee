"""Command-line front end.

Commands: parse, derive, solve, verify, example.  Each runs the same
stages, parse -> axioms -> derive -> solve -> verify, and stops after its
last one.  Output formats: text (human-readable), json (stable machine
format; expressions in prefix notation), latex (math fragment).  Exit
codes: 0 success, 1 a group law or a verification check failed, 2 bad
input or usage, 141 standard output closed before all was written (as a
shell reports a writer killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache, partial

from .dsl import (DslError, bundled_source, parse, pretty_print,
                  validate_axioms)
from .expr import (DEFAULT_SEED, EQUALS_SAMPLES, EQUALS_TOL, INFIX,
                   Equivalence, Sym, format_expr, render, render_cuts,
                   render_weighted)
from .lie import constraints
from .printing import LATEX, PREFIX, latex_expr, prefix_expr
from .solver import MAX_UNKNOWNS, _slots, build_ansatz, solve_family
from .verify import build_report, generic_params

# Defaults of the solve and verify flags.
FLAG_DEFAULTS = {
    "deg_x": 1, "deg_g_min": 0, "deg_g_max": 0, "max_unknowns": MAX_UNKNOWNS,
    "params": None, "numeric": False, "x0": None, "g_end": None,
    "step": 1e-3, "orbit_tol": 1e-6,
}
# `example NAME` takes these, for each flag not given, before FLAG_DEFAULTS.
# Without params, verification uses a generic seeded assignment.
EXAMPLE_DEFAULTS = {
    "so2": {"deg_x": 1, "deg_g": (0, 0), "params": ["a1=0,a2=1"],
            "numeric": True, "x0": "1,0", "g_end": math.tau},
    "affine1": {"deg_x": 1, "deg_g": (-1, 0)},
}


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run_stages(args)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: say nothing, and let the exit flush write
        # what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        if isinstance(exc, OSError) and exc.strerror:  # args[0] is the errno
            message = exc.strerror if exc.filename is None \
                else f"{exc.strerror}: {exc.filename}"
        print(f"error: {message}", file=sys.stderr)
        return 2


def _checked(convert, ok, rule: str):
    """An argparse type: `convert`, then reject values failing `ok`.  It
    keeps `convert`'s name, so malformed numbers read as before."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


_AT_LEAST_ONE = _checked(int, lambda n: n >= 1, "at least 1")
_AT_LEAST_ZERO = _checked(int, lambda n: n >= 0, "at least 0")
_AT_MOST_ZERO = _checked(int, lambda n: n <= 0, "at most 0")
_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                      "finite and non-negative")
# a sampled residual is never exact, so a zero --tol would turn float
# rounding into a Failed verdict
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "finite and positive")
_FINITE = _checked(float, math.isfinite, "finite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrforge",
        description="Derive and verify Lagrangians for finite-dimensional "
                    "Lie transformation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text", help="output format")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"sampling seed (default: {DEFAULT_SEED})")
        p.add_argument("--samples", type=_AT_LEAST_ONE, default=EQUALS_SAMPLES,
                       help="sample count for numeric equality checks")
        p.add_argument("--tol", type=_POSITIVE, default=EQUALS_TOL,
                       help="tolerance for numeric equality checks")

    def solve_flags(p):
        p.add_argument("--deg-x", type=_AT_LEAST_ZERO,
                       help="max exponent per field variable in multipliers")
        p.add_argument("--deg-g-min", type=_AT_MOST_ZERO,
                       help="min exponent per group parameter in multipliers")
        p.add_argument("--deg-g-max", type=_AT_LEAST_ZERO,
                       help="max exponent per group parameter in multipliers")
        p.add_argument("--max-unknowns", type=_AT_LEAST_ONE,
                       help="cap on ansatz unknowns")

    def verify_flags(p):
        p.add_argument("--params", action="append",
                       metavar="NAME=VALUE,...",
                       help="free parameter values, exact rationals "
                            "(default: a generic seeded assignment)")
        p.add_argument("--numeric", action=argparse.BooleanOptionalAction,
                       help="run the numeric orbit integration")
        p.add_argument("--x0", metavar="A,B,...",
                       help="initial point for the orbit integration")
        p.add_argument("--g-end", type=_FINITE,
                       help="final group parameter value for the orbit")
        p.add_argument("--step", type=_POSITIVE,
                       help="orbit integration step")
        p.add_argument("--orbit-tol", type=_TOLERANCE,
                       help="max allowed orbit deviation")

    p = sub.add_parser("parse", help="parse a group file and check axioms")
    p.add_argument("input", help="path to a .grp file or a bundled name")
    common(p)

    p = sub.add_parser("derive", help="derive the Lie structure")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("solve", help="solve for the Lagrangian family")
    p.add_argument("input")
    common(p)
    solve_flags(p)
    p.set_defaults(**FLAG_DEFAULTS)

    p = sub.add_parser("verify", help="verify a family at parameter values")
    p.add_argument("input")
    common(p)
    solve_flags(p)
    verify_flags(p)
    p.set_defaults(**FLAG_DEFAULTS)

    p = sub.add_parser("example",
                       help="run the full pipeline with bundled defaults")
    p.add_argument("name", choices=sorted(EXAMPLE_DEFAULTS))
    common(p)
    solve_flags(p)
    verify_flags(p)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built once per process; argparse keeps no
    state between `parse_args` calls."""
    return build_parser()


# ---------------------------------------------------------------------------
# Input and flag helpers.


def _load_source(name_or_path: str) -> str:
    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return fh.read()
    if "/" not in name_or_path and not name_or_path.endswith(".grp"):
        return bundled_source(name_or_path)
    raise FileNotFoundError(f"no such file: {name_or_path}")


def _parse_params(chunks) -> dict:
    out = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"expected NAME=VALUE, got '{item}'")
            name = name.strip()
            if name in out:
                raise ValueError(f"--params sets '{name}' twice")
            try:
                out[name] = Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"'{value.strip()}' is not an exact rational") from None
    return out


def _parse_x0(text: str):
    def component(part):
        try:
            return float(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"--x0 takes rationals within float range, "
                             f"got '{part.strip()}'") from None
    return tuple(component(part) for part in text.split(","))


def _apply_example_defaults(args) -> None:
    defaults = dict(EXAMPLE_DEFAULTS[args.name])
    defaults["deg_g_min"], defaults["deg_g_max"] = defaults.pop("deg_g")
    for key, value in FLAG_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, defaults.get(key, value))


def _verdict(v: Equivalence) -> str:
    if v is None:
        return None
    return "Failed" if v == Equivalence.PROVED_UNEQUAL else v.value


# ---------------------------------------------------------------------------
# Shared payload/text builders.


def _axioms_payload(report) -> dict:
    return {
        "group": report.group,
        "samples": report.samples,
        "seed": report.seed,
        "ok": report.ok,
        "checks": [
            {"axiom": c.axiom, "description": c.description,
             "verdict": c.verdict, "max_residual": c.max_residual,
             "witness": c.witness}
            for c in report.checks
        ],
    }


def _axioms_text(report) -> list:
    state = "ok" if report.ok else "FAILED"
    lines = [f"axioms: {state} ({report.samples} samples, seed {report.seed})"]
    for c in report.checks:
        detail = ""
        if c.max_residual is not None:
            detail = f"  (max residual {c.max_residual:.3e})"
        lines.append(f"  {c.axiom:<18} {c.verdict}{detail}")
        if c.witness:
            lines.append(f"    witness: {c.witness}")
    return lines


def _spec_payload(spec) -> dict:
    return {
        "name": spec.name,
        "params": [p.name for p in spec.params],
        "coords": [c.name for c in spec.coords],
        "identity": [prefix_expr(e) for e in spec.identity],
        "inverse": [prefix_expr(e) for e in spec.inverse],
        "multiply": [prefix_expr(e) for e in spec.multiply],
        "action": [prefix_expr(e) for e in spec.action],
    }


def _lie_payload(lie) -> dict:
    return {
        "fields": [f.name for f in lie.fields],
        "jets": [[j.name for j in row] for row in lie.jets],
        "S": [[prefix_expr(e) for e in row] for row in lie.S],
        "u": [[prefix_expr(e) for e in row] for row in lie.u],
        "phi": [[prefix_expr(e) for e in row] for row in lie.phi],
        "lie_equations": {j.name: prefix_expr(lie.onshell[j])
                          for j in lie.jet_list()},
        "on_action": [[v.value for v in row] for row in lie.on_action],
        "notes": list(lie.notes),
    }


def _lie_rows(lie, fmt) -> list:
    """The derive stage's sections, (heading, [(text label, LaTeX label,
    `fmt` text)]); LaTeX leaves out the Lie equations, which have none."""
    def grid(name, tex, matrix):
        return [(f"{name}[{i}][{j}]", f"{tex}^{{{i}}}_{{{j}}}",
                 render(e, fmt))
                for i, row in enumerate(matrix, start=1)
                for j, e in enumerate(row, start=1)]
    return [
        ("infinitesimal coefficients S[a][j]:", grid("S", "S", lie.S)),
        ("auxiliary functions u[i][j]:", grid("u", "u", lie.u)),
        ("constraints phi[a][j] = X'^a_j - sum_s u[s][j]*S[a][s]:",
         grid("phi", "\\varphi", lie.phi)),
        ("lie equations (on-shell jet values):",
         [] if fmt is LATEX else [(j.name, None, render(lie.onshell[j], fmt))
                                  for j in lie.jet_list()]),
    ]


def _family_rows(family, fmt) -> list:
    """The solve stage's sections, as `_lie_rows`, each sum spliced from
    its block vectors' `fmt` texts: component k's walk its run of free
    parameters in name order.  No weighted sum is built."""
    slots = _slots(family.lie)
    width = len(slots) + 1
    # block vector b's multipliers by slot, then its L_b, from b * width on
    cuts = render_cuts([e for lam, L in zip(family.block_multipliers,
                                            family.block_lagrangians)
                        for e in [lam[slot] for slot in slots] + [L]], fmt)
    multipliers, lagrangians = [], []
    for k, run in enumerate(family.runs, start=1):
        order = sorted(range(len(run)), key=lambda b: run[b].name)
        names = [fmt[0](Sym(run[b]), 1) for b in order]
        starts = [b * width for b in order]
        *lams, L = [render_weighted(names, [cuts[b + i] for b in starts], fmt)
                    for i in range(width)]
        multipliers += [(f"lambda[{k}][{a}][{s}]",
                         f"\\lambda^{{{k}}}_{{{a}{s}}}", text)
                        for (a, s), text in zip(slots, lams)]
        lagrangians.append((f"L_{k}", f"L_{{{k}}}", L))
    return [("multipliers:", multipliers), ("lagrangians:", lagrangians)]


def _rows_text(sections) -> list:
    lines = []
    for heading, rows in sections:
        lines.append(heading)
        lines += [f"  {label} = {text}" for label, _, text in rows]
    return lines


def _family_payload(family) -> dict:
    lie, ansatz = family.lie, family.ansatz
    (_, multipliers), (_, lagrangians) = _family_rows(family, PREFIX)
    return {
        "ansatz": {
            "deg_x": ansatz.deg_x,
            "deg_g": list(ansatz.deg_g),
            "basis": [prefix_expr(b) for b in ansatz.basis],
            "unknowns": lie.r * len(family.system.columns),
        },
        # family.system is one of the r identical diagonal blocks
        "system": {
            "rows": lie.r * len(family.system.rows),
            "unknowns": lie.r * len(family.system.columns),
            "rank": lie.r * family.system.rank,
        },
        "family": {
            "dimension": family.dimension,
            "free_params": [p.name for p in family.free_params],
            "multipliers": {label: text for label, _, text in multipliers},
            "lagrangians": [text for _, _, text in lagrangians],
        },
        "components": lie.r,
    }


def _family_text(family) -> list:
    lines = []
    ansatz, r = family.ansatz, family.lie.r
    lo, hi = ansatz.deg_g
    lines.append(f"ansatz: deg_x={ansatz.deg_x}, deg_g=[{lo},{hi}], "
                 f"basis size {len(ansatz.basis)}, "
                 f"{r * len(family.system.columns)} unknowns")
    lines.append(f"system: {r * len(family.system.rows)} equations, "
                 f"rank {r * family.system.rank}, "
                 f"nullspace dimension {family.dimension}")
    names = ", ".join(p.name for p in family.free_params) or "none"
    lines.append(f"free parameters: {names}")
    return lines + _rows_text(_family_rows(family, INFIX))


def _report_payload(report) -> dict:
    conv = report.converse
    out = {
        "ok": report.ok,
        "params": {k: str(v) for k, v in report.params.items()},
        "forward": [[_verdict(v) for v in row] for row in report.forward],
        "converse": {
            "status": conv.status,
            "equations": [
                {"component": k, "field": a, "expression": prefix_expr(e)}
                for k, a, e in conv.equations
            ],
            "solved": {j.name: prefix_expr(e) for j, e in conv.solved.items()},
            "unsolved": list(conv.unsolved),
            "comparisons": [[name, _verdict(v)] for name, v in conv.comparisons],
            "witness": conv.witness,
        },
        "notes": list(report.notes),
    }
    if report.degeneracy is not None:
        out["degeneracy"] = {
            "entries": [
                {"label": e.label,
                 "assignment": {k: str(v) for k, v in e.assignment.items()},
                 "status": e.status}
                for e in report.degeneracy.entries
            ],
            "degenerate": list(report.degeneracy.degenerate),
        }
    else:
        out["degeneracy"] = None
    if report.kinetic is not None:
        out["kinetic"] = {
            "verdict": _verdict(report.kinetic.verdict),
            "momentum_onshell": prefix_expr(report.kinetic.momentum_onshell),
            "energy_onshell": prefix_expr(report.kinetic.energy_onshell),
            "special_lagrangian": prefix_expr(report.kinetic.special_lagrangian),
            "family_match": _verdict(report.kinetic.family_match),
        }
    else:
        out["kinetic"] = None
    if report.orbit is not None:
        out["orbit"] = {
            "max_deviation": report.orbit.max_deviation,
            "steps": report.orbit.steps,
            "final_state": list(report.orbit.final_state),
            "final_exact": list(report.orbit.final_exact),
            "tolerance": report.orbit_tol,
            "ok": report.orbit.max_deviation <= report.orbit_tol,
        }
    else:
        out["orbit"] = None
    return out


def _report_text(report) -> list:
    conv = report.converse
    lines = []
    shown = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    lines.append(f"verification at {shown or 'no parameters'}:")
    lines.append("forward check (strong E-L on shell, symbolic parameters):")
    for k, row in enumerate(report.forward, start=1):
        verdicts = ", ".join(_verdict(v) for v in row)
        lines.append(f"  L_{k}: {verdicts}")
    lines.append(f"converse check: {conv.status}")
    for j in sorted(conv.solved, key=lambda j: j.name):
        lines.append(f"  solved {j.name} = {format_expr(conv.solved[j])}")
    for name, v in conv.comparisons:
        lines.append(f"  against lie equation {name}: {_verdict(v)}")
    if conv.unsolved:
        lines.append(f"  undetermined jets: {', '.join(conv.unsolved)}")
    if conv.witness:
        lines.append(f"  witness: {conv.witness}")
    if report.degeneracy is not None:
        parts = "; ".join(f"{e.label} -> {e.status}"
                          for e in report.degeneracy.entries)
        lines.append(f"degeneracy scan: {parts}")
        if report.degeneracy.degenerate:
            lines.append("  degenerate directions: "
                         + ", ".join(report.degeneracy.degenerate))
    if report.kinetic is not None:
        kin = report.kinetic
        lines.append(f"kinetic identity: {_verdict(kin.verdict)}")
        lines.append(f"  on-shell momentum: {format_expr(kin.momentum_onshell)}")
        lines.append(f"  on-shell energy:   {format_expr(kin.energy_onshell)}")
        lines.append(f"  special Lagrangian: {format_expr(kin.special_lagrangian)}")
        if kin.family_match is not None:
            lines.append(f"  family specialization matches: "
                         f"{_verdict(kin.family_match)}")
    if report.orbit is not None:
        orb = report.orbit
        state = "ok" if orb.max_deviation <= report.orbit_tol else "FAILED"
        lines.append(f"orbit check: max deviation {orb.max_deviation:.3e} "
                     f"over {orb.steps} steps "
                     f"(tolerance {report.orbit_tol:g}): {state}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"result: {'ok' if report.ok else 'FAILED'}")
    return lines


def _latex_lines(sections) -> list:
    """One aligned block of the rows, by their LaTeX labels."""
    lines = ["\\[", "\\begin{aligned}"]
    for _, rows in sections:
        lines += [f"{label} &= {text} \\\\" for _, label, text in rows]
    return lines + ["\\end{aligned}", "\\]"]


def _spec_latex(spec) -> list:
    return _latex_lines([("", [(None, f"(S_g X)^{{{a}}}", latex_expr(e))
                               for a, e in enumerate(spec.action, start=1)])])


# ---------------------------------------------------------------------------
# The command handler.


def run_stages(args) -> int:
    """Run parse -> axioms -> derive -> solve -> verify up to the command's
    last stage and emit what was built.  A failed group law stops the run
    after the axiom stage, with exit code 1.

    Each stage that runs adds one builder per format, (JSON keys, text
    lines, LaTeX block); only the requested format's builders are called.
    """
    if args.command == "example":
        last, source = "verify", bundled_source(args.name)
        _apply_example_defaults(args)
    else:
        last, source = args.command, _load_source(args.input)

    spec = parse(source)
    axioms = validate_axioms(spec, seed=args.seed, tol=args.tol)

    def group_text():
        lines = [f"group {spec.name}: {spec.r} parameter(s), "
                 f"{spec.n} coordinate(s)"]
        if last == "parse":
            lines += ["", pretty_print(spec).rstrip(), ""]
        return lines + _axioms_text(axioms)

    stages = [(lambda: {"group": _spec_payload(spec),
                        "axioms": _axioms_payload(axioms)},
               group_text, partial(_spec_latex, spec))]

    def finish(ok: bool) -> int:
        if args.format == "json":
            payload = {"command": args.command, "ok": ok}
            for keys, _, _ in stages:
                payload.update(keys())
            out = json.dumps(payload, indent=2, sort_keys=True)
        elif args.format == "text":
            out = "\n".join(line for _, text, _ in stages for line in text())
        else:
            out = "\n".join(stages[-1][2]())
        print(out, flush=True)  # a closed pipe is met here, not at exit
        return 0 if ok else 1

    if not axioms.ok or last == "parse":
        return finish(axioms.ok)

    lie = constraints(spec, samples=args.samples, seed=args.seed,
                      tol=args.tol)
    stages.append((lambda: {"lie": _lie_payload(lie)},
                   lambda: _rows_text(_lie_rows(lie, INFIX)),
                   lambda: _latex_lines(_lie_rows(lie, LATEX))))
    if last == "derive":
        return finish(True)

    # malformed verify flags fail before the solve; unknown parameter
    # names need the family and are caught at the report
    x0 = _parse_x0(args.x0) if args.x0 is not None else None
    params = _parse_params(args.params) if args.params is not None else None
    family = solve_family(lie, build_ansatz(
        lie, deg_x=args.deg_x, deg_g=(args.deg_g_min, args.deg_g_max),
        max_unknowns=args.max_unknowns))
    stages.append((partial(_family_payload, family),
                   partial(_family_text, family),
                   lambda: _latex_lines(_family_rows(family, LATEX))))
    if last == "solve":
        return finish(True)

    if params is None:
        params = generic_params(family, args.seed)
    report = build_report(family, params, numeric=args.numeric, x0=x0,
                          g_end=args.g_end, step=args.step,
                          orbit_tol=args.orbit_tol, samples=args.samples,
                          seed=args.seed, tol=args.tol)
    # the report has no LaTeX block of its own; it repeats the family's
    stages.append((lambda: {"report": _report_payload(report)},
                   partial(_report_text, report), stages[-1][2]))
    return finish(report.ok)


if __name__ == "__main__":
    entry()
