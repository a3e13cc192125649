"""Benchmark for bcc-secrecy: every ``bccsec`` subcommand on seeded inputs.

    python3 bench/run.py --workload regions|equivocation|trials \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  The harness writes the seed's channel
and experiment files to a temporary directory under ``.bench_work/`` and
starts one worker process (bench/worker.py) that runs the workload's jobs
through ``bcc_secrecy.cli.run`` with ``src/`` on the path; the program sees
only those files.  All load comes from that one process, with no extra
threads or processes of the benchmark's own; OpenBLAS keeps its defaults,
which are recorded.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters running
  ``python -m bcc_secrecy.cli --help`` to exit (one untimed run first,
  so byte-compilation is not counted);
* ``wall_s``: one pass over the job list in a warm process, the sum over
  jobs of each job's median time across the passes made in ``--seconds``;
* ``peak_rss_mib``: max RSS of the worker process;
* ``work_per_s``: the workload's throughput, printed under its own name
  too: ``candidates_per_s`` (regions: auxiliary candidates counted in
  closed form over the summed time of the three region searches),
  ``equivocation_cells_per_s`` (equivocation: sum of |Z|^n * m1*m2*l1*l2
  over the simulate time) or ``trials_per_s`` (trials: Monte-Carlo trials
  over the simulate time).

Every attempt of every job, the warm-up included, is checked (checks.py);
``failed_ratio`` = failed / attempted is printed, and the counts are the
``attempted`` and ``failed`` fields of the result.  ``correct`` is true
when nothing failed.

With ``--trace 1`` the worker alternates untraced and traced passes and the
harness reports per-layer metrics: inclusive time and calls of each public
function, self times (a span's duration minus its children's), counters
computed in closed form at the function boundary, import times from
``-X importtime``, and the tracing overhead (traced minus untraced pass
time).  The spans of the last traced pass go to
``.bench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and the seeds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 170
REFERENCE = BENCH / "reference_seed0.json"
# Self time per module; with cli.run.self_s they sum to trace.self_sum_s.
MODULES = ("regions", "coding", "channels", "information", "formats")
IMPORT_ROOTS = ("numpy", "scipy", "click", "bcc_secrecy")
THROUGHPUT_NAME = {
    "regions": "candidates_per_s",
    "equivocation": "equivocation_cells_per_s",
    "trials": "trials_per_s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed job check)."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_help(env: dict, *flags: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "bcc_secrecy.cli", "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "Usage:" not in proc.stdout:
        raise BenchError(f"`bccsec --help` failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def measure_setup(env: dict) -> float:
    run_help(env)
    return statistics.median(run_help(env)[0] for _ in range(SETUP_RUNS))


def import_times(env: dict) -> dict:
    """Seconds spent in each library's own modules, from ``-X importtime``."""
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        totals = defaultdict(int)
        for line in run_help(env, "-X", "importtime")[1].splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            self_us = parts[0].split(":")[1].strip()
            if self_us.isdigit():
                totals[parts[2].strip().split(".")[0]] += int(self_us)
        for root in IMPORT_ROOTS:
            runs[root].append(totals[root] / 1e6)
    return {f"cli.import.{root}_s": statistics.median(runs[root]) for root in IMPORT_ROOTS}


def provenance(seed: int, chain) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_rev": rev,
        "seed": seed,
        "bsc_chain": list(chain),
        "src_lines": src_lines,
    }


def run_worker(plan: dict, workdir: Path, env: dict) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def check_all(plan: dict, result: dict, workdir: Path, seed: int):
    """(attempted, failed, failure messages, observed values of the first timed pass)."""
    jobs = {job["name"]: job for job in plan["jobs"]}
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())
    attempted, failed, failures, observed = 0, 0, [], {}
    for record in result["passes"]:
        for attempt in record["attempts"]:
            job = jobs[attempt["job"]]
            attempted += 1
            errors = checks.check_attempt(
                job, attempt, workdir, plan["chain"], workloads.GAUSSIAN, reference
            )
            failed += bool(errors)
            failures.extend(f"{attempt['job']} [{attempt['pass']}]: {e}" for e in errors)
            if record["label"] == "p0" and not errors:
                values = checks.observed_values(job, attempt, workdir)
                if values is not None:
                    observed[job["name"]] = values
    return attempted, failed, failures, observed


def job_times(passes: list[dict]) -> dict:
    times = defaultdict(list)
    for record in passes:
        for attempt in record["attempts"]:
            times[attempt["job"]].append(attempt["wall_s"])
    return times


def pass_total(record: dict) -> float:
    return sum(a["wall_s"] for a in record["attempts"])


def end_to_end(workload: str, plan: dict, result: dict, setup_s: float) -> dict:
    timed = [r for r in result["passes"] if r["label"] != "warm" and not r["traced"]]
    times = job_times(timed)
    medians = {job: statistics.median(values) for job, values in times.items()}
    if workload == "regions":
        work_jobs = [j for j in plan["jobs"] if "candidates" in j]
        work = sum(j["candidates"] for j in work_jobs)
    elif workload == "equivocation":
        work_jobs = plan["jobs"]
        work = sum(j["cells"] for j in work_jobs)
    else:
        work_jobs = plan["jobs"]
        work = sum(j["trials"] for j in work_jobs)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(medians.values()), "s"),
        "peak_rss_mib": (result["maxrss_kib"] / 1024.0, "MiB"),
        "work_per_s": (work / sum(medians[j["name"]] for j in work_jobs), "1/s"),
    }, times


def span_table(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return table


def per_layer(plan: dict, result: dict, imports: dict) -> tuple[dict, dict]:
    timed = [r for r in result["passes"] if r["label"] != "warm"]
    traced = [r for r in timed if r["traced"]]
    untraced = [r for r in timed if not r["traced"]]
    tables = [span_table(r["spans"]) for r in traced]

    def mean_of(name, field):
        return statistics.fmean(t[name][field] if name in t else 0.0 for t in tables)

    def counter(name):
        return statistics.fmean(r["counters"].get(name, 0) for r in traced)

    kernels = ("regions.degraded_region_inner", "regions.general_inner_bound",
               "regions.wiretap_secrecy_capacity")
    m = {}
    for name in ("regions.upper_right_hull", "regions.simplex_grid",
                 "regions.gaussian_region_point", "coding.encode_superposition",
                 "coding.encode_double_binning", "coding.transmit", "coding.decode_rx1",
                 "coding.decode_rx2"):
        m[f"{name}.s"] = (mean_of(name, "s"), "s")
        if name != "regions.upper_right_hull":
            m[f"{name}.calls"] = (mean_of(name, "calls"), "count")
    m["regions.upper_right_hull.points_in"] = (counter("regions.upper_right_hull.points_in"), "count")
    m["regions.upper_right_hull.points_out"] = (counter("regions.upper_right_hull.points_out"), "count")
    m["regions.kernel.self_s"] = (sum(mean_of(k, "self_s") for k in kernels), "s")
    m["regions.candidates"] = (float(sum(j.get("candidates", 0) for j in plan["jobs"])), "count")
    m["coding.exact_equivocation.s"] = (mean_of("coding.exact_equivocation", "s"), "s")
    m["coding.exact_equivocation.cells"] = (counter("coding.exact_equivocation.cells"), "count")
    m["coding.exact_equivocation.bytes_computed"] = (
        counter("coding.exact_equivocation.bytes_computed"), "B")
    m["coding.run_error_experiment.self_s"] = (mean_of("coding.run_error_experiment", "self_s"), "s")
    m["coding.encode_failures"] = (counter("coding.encode_failures"), "count")
    m["coding.words_scored"] = (counter("coding.words_scored"), "count")
    for name in ("coding.build_superposition", "coding.build_double_binning",
                 "channels.check_stochastic_degraded", "information.mutual_information",
                 "formats.load_channel", "formats.parse_experiment", "formats.write_csv",
                 "formats.write_json"):
        m[f"{name}.s"] = (mean_of(name, "s"), "s")
    m["formats.bytes_written"] = (counter("formats.bytes_written"), "B")
    m["cli.run.self_s"] = (mean_of("cli.run", "self_s"), "s")
    for key, value in imports.items():
        m[key] = (value, "s")
    names = set().union(*tables)
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum((mean_of(n, "self_s") for n in names if n.split(".")[0] == module), 0.0), "s")
    traced_wall = statistics.fmean(pass_total(r) for r in traced)
    untraced_wall = statistics.fmean(pass_total(r) for r in untraced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.self_sum_s"] = (sum(mean_of(n, "self_s") for n in names), "s")
    m["trace.spans"] = (statistics.fmean(len(r["spans"]) for r in traced), "count")
    detail = {
        "self_s_by_span": {n: {f: mean_of(n, f) for f in ("calls", "s", "self_s")}
                           for n in sorted(names)},
        "computed_counters": {k: v[0] for k, v in m.items() if v[1] in ("count", "B")},
        "last_traced_pass": {
            "jobs": [j["name"] for j in plan["jobs"]],
            "spans": [dict(zip(("name", "start", "end", "parent", "job"), s))
                      for s in traced[-1]["spans"]],
        },
    }
    return m, detail


def emit(name: str, value: float, unit: str) -> None:
    print(f"{name:<44} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcc_secrecy" / "cli.py").is_file():
        print(f"error: {SRC / 'bcc_secrecy'} not found; run from a full checkout", file=sys.stderr)
        return 2
    env = program_env()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        plan.update(seconds=args.seconds, trace=bool(args.trace))
        if args.trace:
            imports = import_times(env)
        else:
            setup_s = measure_setup(env)
        result = run_worker(plan, workdir, env)
        attempted, failed, failures, observed = check_all(plan, result, workdir, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.seed, plan["chain"])
    prov["openblas_threads"] = result["openblas_threads"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    (out_dir / f"values-{tag}.json").write_text(json.dumps(observed, indent=1, sort_keys=True))

    if args.trace:
        metrics, detail = per_layer(plan, result, imports)
        for name, row in detail["self_s_by_span"].items():
            print(f"span {name:<40} calls {row['calls']:>9.0f}  s {row['s']:.6f}  "
                  f"self_s {row['self_s']:.6f}")
        gap = metrics["trace.wall_s"][0] - metrics["trace.self_sum_s"][0]
        print(f"self times sum to traced wall_s within {gap:.6f} s "
              f"(tracing overhead {metrics['trace.overhead_s'][0]:.6f} s)")
        trace_doc = {"provenance": prov, "metrics": {k: v[0] for k, v in metrics.items()}, **detail}
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(trace_doc))
    else:
        metrics, times = end_to_end(args.workload, plan, result, setup_s)
        for job, values in times.items():
            print(f"job {job:<20} median {statistics.median(values):.4f} s  min {min(values):.4f}"
                  f"  max {max(values):.4f}  over {len(values)} passes")
        emit(THROUGHPUT_NAME[args.workload], *metrics["work_per_s"])
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    emit("failed_ratio", failed / attempted, "")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
