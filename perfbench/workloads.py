"""Workload definitions and the reference check for the benchmark.

A job is one real CLI invocation, `lagrforge.cli.run(argv)`, with
`--format json --seed <seed>` appended.  A workload is a fixed list of job
kinds; one pass runs each kind once, in an order drawn from the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SE2 = HERE / "groups" / "se2.grp"


@dataclass(frozen=True)
class Job:
    kind: str      # key into the reference file
    argv: tuple    # CLI arguments before --format/--seed


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    # job_s.tail (in the run record, not bounded) is this nearest-rank
    # percentile of the run's job times:
    # the highest that keeps ten jobs beyond it when a run of
    # BENCHMARK.json's run_seconds on a 2-vCPU machine does 20% fewer jobs
    # than the fewest seen.  The run prints how many jobs lay beyond it.
    tail_percentile: int


def _solve(dx, lo, hi):
    return Job(f"solve affine1 dx{dx} g[{lo},{hi}]",
               ("solve", "affine1", "--deg-x", str(dx),
                "--deg-g-min", str(lo), "--deg-g-max", str(hi)))


WORKLOADS = {
    # The linear core (residual build, RREF and nullspace, family
    # assembly) is about 90% of each job and no verification runs.
    "solve-affine1": Workload(
        jobs=(_solve(1, -1, 0), _solve(2, -1, 0), _solve(1, -1, 1)),
        tail_percentile=67),
    # About 75% of each job is the 6,284-step RK4 orbit; the solve has 8
    # unknowns, so a linear-core change should not move it.
    "example-so2": Workload(
        jobs=(Job("example so2", ("example", "so2")),),
        tail_percentile=91),
    # The expression kernel used differently from the solve: substitution,
    # cross-multiplied elimination and sampled equality over trig as well
    # as polynomial input, plus the CLI rendering layer.
    "verify-mixed": Workload(
        jobs=(Job("example affine1", ("example", "affine1")),
              Job("verify affine1 dx1 g[-1,1]",
                  ("verify", "affine1", "--deg-x", "1",
                   "--deg-g-min", "-1", "--deg-g-max", "1")),
              Job("verify so2 dx3", ("verify", "so2", "--deg-x", "3")),
              Job("verify so2 dx4", ("verify", "so2", "--deg-x", "4")),
              Job("verify se2 dx1", ("verify", str(SE2), "--deg-x", "1"))),
        tail_percentile=68),
}


def job_argv(job: Job, seed: int) -> list:
    return list(job.argv) + ["--format", "json", "--seed", str(seed)]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def facts(rc, stdout: str) -> dict:
    """The seed-independent facts of one job's result."""
    payload = json.loads(stdout)
    report = payload.get("report")
    orbit = report.get("orbit") if report else None
    return {
        "exit": rc,
        "ok": payload.get("ok"),
        "dimension": (payload.get("family") or {}).get("dimension"),
        "converse": report["converse"]["status"] if report else None,
        "forward_failed": sum(v == "Failed" for row in report["forward"]
                              for v in row) if report else 0,
        "orbit_deviation": orbit["max_deviation"] if orbit else None,
    }


def check(expected: dict, rc, stdout: str) -> list:
    """Differences between one job's result and its reference entry."""
    try:
        got = facts(rc, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output (exit {rc}): {exc!r}"]
    errors = [f"{key}: expected {expected[key]!r}, got {got[key]!r}"
              for key in ("exit", "ok", "dimension", "converse")
              if got[key] != expected[key]]
    if got["forward_failed"]:
        errors.append(f"{got['forward_failed']} forward verdict(s) Failed")
    tol = expected["orbit_tolerance"]
    if tol is not None:
        dev = got["orbit_deviation"]
        if dev is None or not dev <= tol:
            errors.append(f"orbit deviation {dev!r} exceeds {tol!r}")
    return errors
