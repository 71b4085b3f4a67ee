"""Tests of the benchmark itself, kept apart from the package's tests:

    python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import spans
import workloads

REFERENCE = workloads.load_reference()
ALL_JOBS = [job for w in workloads.WORKLOADS.values() for job in w.jobs]


def bench(*args, cwd=run.ROOT):
    """Run the benchmark as the command line does; return the process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def collected_system(job):
    """The exact linear system a job's solve reduces, built as the CLI
    builds it."""
    cli = run.import_cli()
    from lagrforge import (build_ansatz, bundled_source, collect_system,
                           constraints, parse, weak_el_residual_of)
    args = cli.build_parser().parse_args(workloads.job_argv(job, 1))
    if args.command == "example":
        defaults = cli.EXAMPLE_DEFAULTS[args.name]
        source = bundled_source(args.name)
        deg_x, deg_g = defaults["deg_x"], defaults["deg_g"]
    else:
        if os.path.exists(args.input):
            with open(args.input, encoding="utf-8") as fh:
                source = fh.read()
        else:
            source = bundled_source(args.input)
        deg_x, deg_g = args.deg_x, (args.deg_g_min, args.deg_g_max)
    lie = constraints(parse(source))
    ansatz = build_ansatz(lie, deg_x=deg_x, deg_g=deg_g)
    residuals = [weak_el_residual_of(lie, ansatz.lagrangian_component(k), a)
                 for k in range(1, lie.r + 1) for a in range(1, lie.n + 1)]
    return collect_system(residuals, ansatz)


@pytest.mark.parametrize("job", ALL_JOBS, ids=lambda job: job.kind)
def test_reference_dimension_matches_sympy_rank(job):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    system = collected_system(job)
    ncols = len(system.columns)
    matrix = DomainMatrix(
        [[QQ(v.numerator, v.denominator) for v in row] for row in system.rows],
        (len(system.rows), ncols), QQ)
    assert ncols - matrix.rank() == REFERENCE["jobs"][job.kind]["dimension"]


def test_spans_land_on_their_layers():
    cli = run.import_cli()
    import lagrforge.expr
    import lagrforge.solver

    job = next(j for j in ALL_JOBS if j.kind == "verify so2 dx3")
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        rec = run.run_job(cli, job, 1, tracer, REFERENCE["jobs"][job.kind],
                          False)
    finally:
        tracer.uninstall()
    assert missing == []
    assert lagrforge.solver.differentiate is lagrforge.expr.differentiate
    assert rec["errors"] == []

    job_spans = rec["spans"]["spans"]
    parents = Counter((s["name"], job_spans[s["parent"]]["name"])
                      for s in job_spans[1:])
    assert parents[("solver.residual", "solver.solve_family")] == 2
    assert parents[("solver.nullspace", "solver.solve_family")] == 1
    assert parents[("verify.converse", spans.ROOT)] == 1
    scan_checks = parents[("verify.converse", "verify.degeneracy")]
    assert scan_checks >= 2

    layers = rec["layers"]
    assert layers["verify.converse_calls"] == 1
    assert layers["verify.degeneracy.converse_calls"] == scan_checks
    assert layers["verify.degeneracy_skipped"] == 0
    scan_self = sum(s["self"] for s in job_spans
                    if s["name"] in ("verify.degeneracy", "verify.converse")
                    and s["parent"] and job_spans[s["parent"]]["name"]
                    != spans.ROOT)
    assert layers["verify.degeneracy_s"] > scan_self > 0
    for name in ("solver.build_ansatz_s", "solver.residual_s",
                 "solver.collect_system_s", "solver.nullspace_s",
                 "solver.assembly_s", "verify.forward_s", "verify.converse_s",
                 "verify.kinetic_s", "expr.differentiate_s",
                 "expr.substitute_s", "expr.canonicalize_s", "expr.equals_s",
                 "dsl.parse_s", "dsl.validate_axioms_s", "lie.constraints_s",
                 "cli.render_s", "printing.prefix_expr_s"):
        assert layers[name] > 0, name
    assert layers["verify.orbit_s"] == layers["expr.eval_numeric_calls"] == 0
    assert layers["solver.unknowns"] == 32
    assert layers["solver.dimension"] == 4
    assert layers["expr.equals_calls"] == (layers["expr.equals.proved"]
                                           + layers["expr.equals.numeric"]
                                           + layers["expr.equals.unequal"])


def test_benchmark_json_matches_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert ({w["name"] for w in declared["workloads"]}
            == set(workloads.WORKLOADS))


def test_reference_seed_run_is_correct_and_unchanged():
    seed = REFERENCE["seed"]
    proc = bench("--workload", "example-so2", "--seed", str(seed),
                 "--seconds", "0", "--trace", "1")
    result = result_of(proc)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert metrics["cli.json_changed"]["value"] == 0
    assert metrics["verify.orbit_steps"]["value"] == 6284
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == names

    # One untraced and one traced pass: the traced job's layer times,
    # over the untraced job's time, are the reported tracing overhead.
    with open(run.OUT / f"example-so2-seed{seed}-trace1.json",
              encoding="utf-8") as fh:
        record = json.load(fh)
    (untraced,), (traced,) = (
        [t for p, _, t, _ in record["job_times"] if p == i] for i in (0, 1))
    job_spans = record["jobs_traced"][0]["spans"]
    layer_s = sum(s["self"] + sum(sec for _, sec in s["leaves"].values())
                  for s in job_spans)
    assert layer_s == pytest.approx(traced, rel=0.01)
    overhead = metrics["trace.overhead"]["value"]
    assert overhead == pytest.approx(traced / untraced)
    assert layer_s / untraced == pytest.approx(overhead, rel=0.01)
    assert record["per_kind"]["example so2"]["trace.overhead"] == overhead


def test_wrong_reference_counts_as_failed_jobs(tmp_path, monkeypatch,
                                              capsys):
    wrong = json.loads(json.dumps(REFERENCE))
    wrong["jobs"]["example so2"]["dimension"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(wrong))
    monkeypatch.setattr(workloads, "REFERENCE", path)
    assert run.main(["--workload", "example-so2", "--seed", "5",
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False
    with open(run.OUT / "example-so2-seed5-trace0.json",
              encoding="utf-8") as fh:
        assert json.load(fh)["unbounded"]["jobs_per_s"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "example-so2", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
