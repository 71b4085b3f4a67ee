"""Regenerate perfbench/reference.json from the checkout's own sources.

    python3 perfbench/make_reference.py

Each job kind is run once at lagrforge's default seed, which fixes the
output digests.  The exit code, `ok`, family dimension, converse status and
orbit tolerance are mathematical; they are re-derived at every seed in
CHECK_SEEDS and the script refuses to write if any of them differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess

import run
import workloads

ORBIT_TOLERANCE = 1e-6   # the CLI's --orbit-tol default
CHECK_SEEDS = (1, 2, 3)


def run_kind(cli, job, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(workloads.job_argv(job, seed))
    return rc, out.getvalue()


def expected_facts(rc, stdout):
    got = workloads.facts(rc, stdout)
    return {"exit": got["exit"], "ok": got["ok"],
            "dimension": got["dimension"], "converse": got["converse"],
            "orbit_tolerance": ORBIT_TOLERANCE
            if got["orbit_deviation"] is not None else None}


def main():
    cli = run.import_cli()
    from lagrforge.expr import DEFAULT_SEED

    jobs = {}
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs:
            rc, stdout = run_kind(cli, job, DEFAULT_SEED)
            entry = expected_facts(rc, stdout)
            for seed in CHECK_SEEDS:
                other = expected_facts(*run_kind(cli, job, seed))
                if other != entry:
                    raise SystemExit(f"{job.kind}: seed {seed} gives {other}, "
                                     f"default seed gives {entry}")
            if entry["orbit_tolerance"] is not None:
                errors = workloads.check(entry, rc, stdout)
                if errors:
                    raise SystemExit(f"{job.kind}: {errors}")
            entry["json_sha256"] = workloads.digest(stdout)
            jobs[job.kind] = entry
            print(f"{job.kind}: {entry}")

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=run.ROOT, capture_output=True, text=True,
                            check=False).stdout.strip() or None
    reference = {"seed": DEFAULT_SEED, "generated_at": commit,
                 "src_sha256": run.tree_identity()["src_sha256"],
                 "jobs": jobs}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2,
                                              sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
