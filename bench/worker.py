"""Benchmark worker: runs one workload's jobs through ``bcc_secrecy.cli.run``.

run.py starts this script in a fresh interpreter, with ``src/`` on the path
and the work directory (which holds the generated inputs) as the current
directory:

    python bench/worker.py PLAN.json RESULT.json

The worker runs the warm-up job once, then whole passes over the job list
until the plan's time is used up.  In trace mode it alternates untraced
and traced passes.  A traced pass rebinds the public functions of every
module in the namespace that calls them, records one span per call, and
undoes the rebinding afterwards.  Outputs are not checked here: each pass
writes its own files, and run.py checks them after this process exits, so
the checks add nothing to this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

from bcc_secrecy import cli, coding, formats, regions


def _count_hull(counters, args, result):
    counters["regions.upper_right_hull.points_in"] += len(args[0])
    counters["regions.upper_right_hull.points_out"] += len(result.points)


def _count_equivocation(counters, args, result):
    cb, pzx = args[0], args[1]
    p = cb.params
    sequences = pzx.output_size**p.n
    counters["coding.exact_equivocation.cells"] += sequences * p.m1 * p.m2 * p.l1 * p.l2
    # int64 digit table n x |Z|^n, plus the float64 per-pair likelihood
    # array and its gather temporary, (l1*l2) x |Z|^n each.
    counters["coding.exact_equivocation.bytes_computed"] += (
        8 * p.n * sequences + 2 * 8 * p.l1 * p.l2 * sequences
    )


def _count_encode_failure(counters, args, result):
    counters["coding.encode_failures"] += result is None


def _count_rx1(counters, args, result):
    p = args[0].params
    counters["coding.words_scored"] += p.m1 * p.m2 * p.l1 * p.l2


def _count_rx2(counters, args, result):
    p = args[0].params
    counters["coding.words_scored"] += p.m2 * p.l2


def _count_binned_decodes(counters, args, result):
    # Double-binning decoding goes through a private helper that is not
    # wrapped: each trial that encoded scores m1*l1 words at receiver 1
    # and m2*l2 at receiver 2.
    cb = args[0]
    if isinstance(cb, coding.BinningCodebook):
        p = cb.params
        decodes = result.trials - result.encoding_failures
        counters["coding.words_scored"] += decodes * (p.m1 * p.l1 + p.m2 * p.l2)


def _count_bytes_written(counters, args, result):
    counters["formats.bytes_written"] += os.path.getsize(args[0])


# (namespace, attribute, span name, counter).  Each name is rebound where
# its caller looks it up: cli imports with ``from .x import``, so cli's
# bindings are the ones to replace; functions that coding, regions and
# formats call internally are replaced in their own modules.
TRACED = [
    (cli, "degraded_region_inner", "regions.degraded_region_inner", None),
    (cli, "general_inner_bound", "regions.general_inner_bound", None),
    (cli, "wiretap_secrecy_capacity", "regions.wiretap_secrecy_capacity", None),
    (cli, "gaussian_region_point", "regions.gaussian_region_point", None),
    (regions, "upper_right_hull", "regions.upper_right_hull", _count_hull),
    (regions, "simplex_grid", "regions.simplex_grid", None),
    (cli, "check_stochastic_degraded", "channels.check_stochastic_degraded", None),
    (cli, "mutual_information", "information.mutual_information", None),
    (cli, "build_superposition", "coding.build_superposition", None),
    (cli, "build_double_binning", "coding.build_double_binning", None),
    (cli, "exact_equivocation", "coding.exact_equivocation", _count_equivocation),
    (cli, "run_error_experiment", "coding.run_error_experiment", _count_binned_decodes),
    (coding, "encode_superposition", "coding.encode_superposition", None),
    (coding, "encode_double_binning", "coding.encode_double_binning", _count_encode_failure),
    (coding, "transmit", "coding.transmit", None),
    (coding, "decode_rx1", "coding.decode_rx1", _count_rx1),
    (coding, "decode_rx2", "coding.decode_rx2", _count_rx2),
    (cli, "load_channel", "formats.load_channel", None),
    (formats, "load_channel", "formats.load_channel", None),
    (cli, "parse_experiment", "formats.parse_experiment", None),
    (cli, "write_csv", "formats.write_csv", _count_bytes_written),
    (cli, "write_json", "formats.write_json", _count_bytes_written),
]


class Tracer:
    """In-memory spans [name, start, end, parent index, job index] and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def install(self):
        for module, attr, name, count in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def run_job(run, job: dict, label: str) -> dict:
    argv = [arg.replace("{pass}", label) for arg in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception:  # a crash fails this job only; the others still run
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"job": job["name"], "pass": label, "argv": argv, "exit_code": code,
            "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(jobs: list[dict], label: str, tracer: Tracer | None) -> dict:
    run = cli.run
    if tracer is not None:
        tracer.install()
        run = tracer.wrap("cli.run", cli.run)
    attempts = []
    try:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            attempts.append(run_job(run, job, label))
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"label": label, "traced": tracer is not None, "attempts": attempts}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = dict(tracer.counters)
    return record


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    jobs, seconds, trace = plan["jobs"], plan["seconds"], plan["trace"]
    warm = [job for job in jobs if job["name"] == plan["warmup"]]
    passes = [run_pass(warm, "warm", None)]
    start = time.perf_counter()
    index = 0
    while True:
        # Untraced and traced passes in the order U T T U U T ..., so that
        # drift over the run cancels from the tracing overhead.
        traced = trace and index % 4 in (1, 2)
        passes.append(run_pass(jobs, f"p{index}", Tracer() if traced else None))
        index += 1
        pair_done = not trace or index % 2 == 0
        if pair_done and time.perf_counter() - start >= seconds:
            break
    result = {
        "passes": passes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "openblas_threads": openblas_threads(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
