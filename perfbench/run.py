"""lagrforge benchmark: closed-loop CLI jobs, timed end to end and by layer.

    python3 perfbench/run.py --workload solve-affine1 --seed 1 \
        --seconds 40 --trace 0

One client runs the workload's jobs back to back in this process, each an
in-process `lagrforge.cli.run(argv + ["--format", "json"])` with stdout
captured, importing lagrforge from this checkout's own `src/`.  Jobs run in
whole passes (every job kind once, in an order drawn from the seed), and
the run stops at the pass boundary nearest to `--seconds`.  Every result
is checked against `perfbench/reference.json`.  A short probe loop runs
just before and after every job; a job's cost is its time over the
probe's, which holds still while the host's speed changes.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced passes and reports its per-layer metrics,
including the tracing overhead (traced over untraced median job time).
Every run prints a table of its metrics, writes its record (with the spans
of traced jobs) to `perfbench/out/`, and ends with one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 5
PROBE_REPEATS = 5
PROBE_STEPS = 100_000
# The probe run just before and just after every job: 3 to 6 ms, short
# next to the fastest job and long enough to read the machine's speed.
PAIR_PROBE_STEPS = 20_000
# Run in a fresh interpreter: the time to import the CLI and build its
# parser, which every `lagrforge` invocation pays before doing any work.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import lagrforge.cli as cli
cli.build_parser()
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine speed, set-up and the tree measured.


def _probe_work(steps):
    table = {}
    for i in range(steps):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i // 3
    return sorted(table.values())[-1]


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop, to attribute slow runs to
    the machine rather than the code."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        _probe_work(PROBE_STEPS)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


class SetupSampler:
    """Set-up time, sampled in fresh interpreters that time themselves (so
    process creation is not counted), spread over the run at pass
    boundaries so that a burst of machine speed does not set the median."""

    def __init__(self):
        self.cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
        self.times = []
        subprocess.run(self.cmd, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)  # writes the bytecode

    def sample(self):
        proc = subprocess.run(self.cmd, check=True, timeout=60, text=True,
                              capture_output=True)
        self.times.append(float(proc.stdout))

    def due(self, elapsed):
        while len(self.times) <= elapsed // SETUP_EVERY_S:
            self.sample()

    def median(self):
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.times)


def tree_identity() -> dict:
    """The git commit when run from a clone, and a digest of the sources."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    h = hashlib.sha256()
    for path in sorted((SRC / "lagrforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def import_cli():
    sys.path.insert(0, str(SRC))
    import lagrforge.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "lagrforge":
        raise RuntimeError(f"imported lagrforge from {cli.__file__}, "
                           f"not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# The closed loop.


def run_job(cli, job, seed, tracer, expected, compare_digest):
    """One timed CLI call, checked against its reference entry; only the
    verdict is kept, so the heap does not grow with outputs."""
    argv = workloads.job_argv(job, seed)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    rc, crash, trace = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.begin_job()
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            crash = traceback.format_exc()
        seconds = perf_counter() - t0
        if tracer:
            trace = tracer.end_job()
    stdout = out.getvalue()
    errors = [crash] if crash else workloads.check(expected, rc, stdout)
    rec = {"kind": job.kind, "seconds": seconds, "errors": errors,
           "stderr": err.getvalue()[-2000:],
           "changed": compare_digest and not crash
           and workloads.digest(stdout) != expected["json_sha256"],
           "traced": tracer is not None, "spans": None}
    if trace:
        rec["layers"] = spans.job_layers(*trace)
        rec["layers"]["cli.json_bytes"] = len(stdout.encode("utf-8"))
        rec["layers"]["job_s"] = seconds
        rec["spans"] = span_dump(trace)
    return rec


def pair_probe_s() -> float:
    t0 = perf_counter()
    _probe_work(PAIR_PROBE_STEPS)
    return perf_counter() - t0


def run_loop(cli, workload, reference, seed, seconds, traced, setup=None):
    """The whole number of passes that ends nearest to `seconds`; with
    tracing, passes alternate untraced and traced, so there are at least
    two.  Output digests are compared only at the seed the reference was
    made at.  Set-up samples due are taken between passes."""
    compare_digest = seed == reference["seed"]
    rng = random.Random(seed)
    tracer = spans.Tracer() if traced else None
    records, pass_s, missing = [], [], set()
    passes = 0
    t_start = perf_counter()
    elapsed = 0.0
    while passes < (2 if traced else 1) \
            or elapsed + elapsed / passes / 2 < seconds:
        if setup:
            setup.due(elapsed)
        order = list(workload.jobs)
        rng.shuffle(order)
        active = tracer if traced and passes % 2 == 1 else None
        if active:
            missing.update(active.install())
        try:
            t_pass = perf_counter()
            probes = 0.0
            for job in order:
                before = pair_probe_s()
                rec = run_job(cli, job, seed, active,
                              reference["jobs"][job.kind], compare_digest)
                after = pair_probe_s()
                rec["pass"] = passes
                rec["probe_s"] = (before + after) / 2
                records.append(rec)
                probes += before + after
            pass_s.append(perf_counter() - t_pass - probes)
        finally:
            if active:
                active.uninstall()
        passes += 1
        elapsed = perf_counter() - t_start
    return records, pass_s, elapsed, sorted(missing)


# ---------------------------------------------------------------------------
# Metrics.


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[max(rank, 1) - 1], len(ordered) - max(rank, 1)


def end_to_end(records, pass_s, workload, setup_s):
    """The metrics BENCHMARK.json bounds, and those it cannot bound.

    The host switches between a fast and a slow speed, about 1.7 times
    apart, for seconds to whole runs at a time, so wall times of the same
    tree move by 20% to 40% from run to run.  Job time over the time of
    the probe loop run just before and after the job moves far less: that
    is the job's cost, in probes, and it is what is bounded.  The wall
    times go to the run record; jobs_per_s there is the median over passes
    of the pass's correct jobs per second of its wall time, probes
    excluded."""
    times = [r["seconds"] for r in records]
    cost = [r["seconds"] / r["probe_s"] for r in records]
    metrics = {
        "job_cost.p50": statistics.median(cost),
        "job_cost.tail": nearest_rank(cost, workload.tail_percentile)[0],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    tail, beyond = nearest_rank(times, workload.tail_percentile)
    correct = Counter(r["pass"] for r in records if not r["errors"])
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r)
    unbounded = {
        "jobs_per_s": statistics.median(correct[i] / s
                                        for i, s in enumerate(pass_s)),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "tail_percentile": workload.tail_percentile,
        "jobs_beyond_tail": beyond,
        "job_s.p50_by_kind": {
            k: statistics.median(r["seconds"] for r in v)
            for k, v in by_kind.items()},
        "job_cost.p50_by_kind": {
            k: statistics.median(r["seconds"] / r["probe_s"] for r in v)
            for k, v in by_kind.items()},
    }
    return metrics, unbounded


def layer_totals(records):
    """Per-layer sums over traced jobs, for the whole run and per kind."""
    total, by_kind, njobs = Counter(), defaultdict(Counter), Counter()
    for rec in records:
        if rec["traced"]:
            total.update(rec["layers"])
            by_kind[rec["kind"]].update(rec["layers"])
            njobs[rec["kind"]] += 1
    return total, by_kind, njobs


RATIOS = {
    "solver.density": ("solver.nnz", "solver.cells"),
    "solver.rank_per_row": ("solver.rank", "solver.rows"),
    "verify.eval_per_step": ("verify.orbit_evals", "verify.orbit_steps"),
    "expr.equals.proved_share": ("expr.equals.proved", "expr.equals_calls"),
}


def trace_overhead(records, kind=None):
    """Traced over untraced median job time, of one job kind or of all.
    A traced job's layer times add up to its traced time, so this is how
    far the layer times of a job may exceed its untraced time."""
    times = defaultdict(list)
    for r in records:
        if kind in (None, r["kind"]):
            times[r["traced"]].append(r["seconds"])
    return statistics.median(times[True]) / statistics.median(times[False])


def per_layer(sums, jobs, names, run_level=None):
    """Per-job means of every count and time, ratios of the sums, and the
    values measured once per run."""
    values = {name: sums[a] / sums[b] if sums[b] else 0.0
              for name, (a, b) in RATIOS.items()}
    values.update(run_level or {})
    return {name: values[name] if name in values else sums[name] / jobs
            for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagrforge" / "cli.py").is_file():
        sys.exit(f"error: no lagrforge sources under {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()

    probe_start = probe_ms()
    setup = None if args.trace else SetupSampler()
    identity = tree_identity()
    cli = import_cli()
    records, pass_s, wall, unwrapped = run_loop(
        cli, workload, reference, args.seed, args.seconds, bool(args.trace),
        setup)
    probe_end = probe_ms()

    failed = [r for r in records if r["errors"]]
    info = {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), **identity,
            "probe_ms": {"start": probe_start, "end": probe_end},
            "jobs": len(records), "passes": len(pass_s), "wall_s": wall,
            "unwrapped": unwrapped,
            "job_times": [[r["pass"], r["kind"], r["seconds"],
                           r["probe_s"]] for r in records],
            "failures": [{"kind": r["kind"], "errors": r["errors"],
                          "stderr": r["stderr"]} for r in failed]}
    per_kind = {}
    if args.trace:
        sums, by_kind, njobs = layer_totals(records)
        metrics = per_layer(sums, sum(njobs.values()), units, {
            "cli.json_changed": sum(r["changed"] for r in records),
            "machine.probe_ms": (probe_start + probe_end) / 2,
            "trace.overhead": trace_overhead(records),
        })
        detail = sorted({k for c in by_kind.values() for k in c}
                        | set(RATIOS) | {"trace.overhead"})
        per_kind = {job.kind: per_layer(
            by_kind[job.kind], njobs[job.kind], detail,
            {"trace.overhead": trace_overhead(records, job.kind)})
            for job in workload.jobs}
    else:
        metrics, info["unbounded"] = end_to_end(records, pass_s, workload,
                                                setup.median())
        info["setup_samples"] = len(setup.times)
        info["json_changed"] = sum(r["changed"] for r in records)
    info["per_kind"] = per_kind

    print(f"workload {args.workload}  seed {args.seed}  "
          f"commit {identity['commit']}  src {identity['src_sha256'][:12]}")
    print(f"jobs {len(records)} in {len(pass_s)} passes, {wall:.2f} s; "
          f"failed {len(failed)}; machine.probe_ms {probe_start:.2f} "
          f"-> {probe_end:.2f}")
    if not args.trace:
        u = info["unbounded"]
        print(f"unbounded: jobs_per_s {u['jobs_per_s']:.4g} 1/s, job_s.p50 "
              f"{u['job_s.p50']:.4g} s, job_s.tail {u['job_s.tail']:.4g} s "
              f"(p{u['tail_percentile']}, {u['jobs_beyond_tail']} jobs "
              f"beyond it)")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if per_kind:
        print_per_kind(per_kind)
    if unwrapped:
        print(f"not in this tree, not traced: {', '.join(unwrapped)}")
    for f in info["failures"]:
        print(f"FAILED {f['kind']}: {f['errors'][0].splitlines()[-1]}")

    OUT.mkdir(exist_ok=True)
    record = dict(info, metrics=metrics,
                  jobs_traced=[r["spans"] for r in records if r["traced"]])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


# Every self-time name, in pipeline order, for the per-kind table.
STAGES = tuple(dict.fromkeys(
    spans.SELF_NAMES.get(name, name)
    for _, _, name in spans.LAYER_SPANS + spans.LEAF_SPANS)) + (
        spans.SELF_NAMES[spans.ROOT],)


def print_per_kind(per_kind):
    """Self milliseconds per stage and job kind, traced."""
    print("traced self time per job, ms:")
    print(f"  {'stage':<22}" + "".join(f"{k[:26]:>28}" for k in per_kind))
    for stage in ("job",) + STAGES:
        row = "".join(f"{c.get(stage + '_s', 0) * 1e3:>28.1f}"
                      for c in per_kind.values())
        print(f"  {stage:<22}{row}")
    print(f"  {'trace.overhead':<22}" + "".join(
        f"{c['trace.overhead']:>28.3f}" for c in per_kind.values()))


def span_dump(trace):
    job_spans, counts = trace
    t0 = job_spans[0].start
    return {"counts": dict(counts), "spans": [
        {"name": s.name, "parent": s.parent, "start": s.start - t0,
         "end": s.end - t0, "self": s.self_time, "error": s.error,
         "leaves": s.leaves} for s in job_spans]}


if __name__ == "__main__":
    sys.exit(main())
