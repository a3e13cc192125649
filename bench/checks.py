"""Output checks for benchmark jobs.

The checks hold for any BSC chain p1 < p2 < p3, so they survive
optimisations that reorder floating-point work:

* wiretap equals h(p3) - h(p1);
* the degraded and general frontiers reach max r1 = h(p3) - h(p1) and
  max r2 = h(p3) - h(p2), and no point exceeds either;
* the degraded frontier weakly dominates the binary power-split points
  r1 = h(b*p1) - h(p1) - h(b*p3) + h(p3), r2 = h(b*p3) - h(b*p2) for every
  b on the grid (U uniform, X = U xor Bern(b));
* the Gaussian sweep matches the closed form, and ``check frontier`` and
  ``check degraded`` report success;
* equivocations obey 0 <= re1, re2 <= re12 <= min(re1 + re2, R1 + R2);
* trial counts obey rx1, rx2 <= union <= trials.

For the default seed the values are also compared with those recorded in
reference_seed0.json: frontiers, the wiretap value and equivocations within
1e-9, and the union error count within a binomial interval, so that a
documented change of the per-trial seed contract is not a failure.

Only the standard library is used, so the checks run in the harness
process and not in the measured worker.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-9
# Two-sample binomial test on the union error count, at this many sigma.
BINOMIAL_SIGMA = 5.0
POWER_SPLIT_STEPS = 20  # the degraded job's grid is 1/20


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def conv(a: float, b: float) -> float:
    """Binary convolution a * b = a(1 - b) + b(1 - a)."""
    return a * (1.0 - b) + b * (1.0 - a)


def _capacity(snr: float) -> float:
    return 0.5 * math.log2(1.0 + snr)


def gaussian_point(g: dict, alpha: float) -> tuple[float, float]:
    p = g["power"]
    r1 = _capacity(alpha * p / g["n1"]) - _capacity(alpha * p / g["n3"])
    r2 = _capacity((1.0 - alpha) * p / (alpha * p + g["n2"])) - _capacity(
        (1.0 - alpha) * p / (alpha * p + g["n3"])
    )
    return r1, r2


def _read_csv(path: Path, header: list[str]) -> list[list[float]]:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: expected header {header}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _envelope(points: list[list[float]], r1: float) -> float:
    """Upper boundary of a hulled frontier (closed downward) at r1."""
    xs = [0.0] + [p[0] for p in points]
    ys = [max(p[1] for p in points)] + [p[1] for p in points]
    if r1 > xs[-1] + TOL:
        return -math.inf
    r1 = min(r1, xs[-1])
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if x0 <= r1 <= x1:
            return y0 if x1 == x0 else y0 + (y1 - y0) * (r1 - x0) / (x1 - x0)
    return ys[0]


def _check_frontier(points, chain, errors, power_split: bool) -> None:
    p1, p2, p3 = chain
    max_r1, max_r2 = h2(p3) - h2(p1), h2(p3) - h2(p2)
    if not points:
        errors.append("empty frontier")
        return
    got_r1 = max(p[0] for p in points)
    got_r2 = max(p[1] for p in points)
    if abs(got_r1 - max_r1) > TOL or abs(got_r2 - max_r2) > TOL:
        errors.append(f"frontier maxima ({got_r1!r}, {got_r2!r}) != ({max_r1!r}, {max_r2!r})")
    if any(p[0] < -TOL or p[1] < -TOL for p in points):
        errors.append("negative rate on the frontier")
    if not power_split:
        return
    for k in range(POWER_SPLIT_STEPS // 2 + 1):
        b = k / POWER_SPLIT_STEPS
        r1 = h2(conv(b, p1)) - h2(p1) - h2(conv(b, p3)) + h2(p3)
        r2 = h2(conv(b, p3)) - h2(conv(b, p2))
        if r2 > _envelope(points, r1) + TOL:
            errors.append(f"power-split point b={b} ({r1!r}, {r2!r}) lies outside the frontier")


def _check_equivocation(eq, code, errors) -> None:
    if eq is None:
        return
    rate1 = math.log2(code["m1"]) / code["n"]
    rate2 = math.log2(code["m2"]) / code["n"]
    re1, re2, re12 = eq["re1"], eq["re2"], eq["re12"]
    if not (
        -TOL <= re1 <= re12 + TOL
        and -TOL <= re2 <= re12 + TOL
        and re12 <= min(re1 + re2, rate1 + rate2) + TOL
    ):
        errors.append(f"equivocation ({re1!r}, {re2!r}, {re12!r}) violates the entropy bounds")


def _binomial_ok(count: int, ref: int, trials: int) -> bool:
    p = (count + ref) / (2 * trials)
    return abs(count - ref) <= BINOMIAL_SIGMA * math.sqrt(2 * trials * p * (1 - p)) + 1


def observed_values(job: dict, attempt: dict, workdir: Path):
    """The values of one attempt that are compared with the reference."""
    label = attempt["pass"]
    kind = job["kind"]
    if kind == "region-degraded":
        return _read_csv(workdir / f"degraded_{label}.csv", ["r1_bits", "r2_bits"])
    if kind == "region-general":
        return _read_csv(workdir / f"general_{label}.csv", ["r1_bits", "r2_bits"])
    if kind == "wiretap":
        key, _, value = attempt["stdout"].strip().partition("=")
        if key != "secrecy_capacity_bits":
            raise ValueError(f"unexpected wiretap output {attempt['stdout']!r}")
        return float(value)
    if kind == "simulate":
        data = json.loads((workdir / f"{job['name']}_{label}.json").read_text())
        eq = data["equivocation"]
        t = data["trials"]
        return {
            "equivocation": None if eq is None else {k: eq[k] for k in ("re1", "re2", "re12")},
            "trials": t["count"],
            "errors_rx1": t["errors_rx1"],
            "errors_rx2": t["errors_rx2"],
            "errors_union": t["errors_union"],
            "code": data["code"],
        }
    return None


def _compare(job: dict, values, ref, errors) -> None:
    kind = job["kind"]
    if kind in ("region-degraded", "region-general"):
        if len(values) != len(ref) or any(
            abs(a - b) > TOL for row, ref_row in zip(values, ref) for a, b in zip(row, ref_row)
        ):
            errors.append("frontier differs from the reference")
    elif kind == "wiretap":
        if abs(values - ref) > TOL:
            errors.append(f"wiretap {values!r} differs from the reference {ref!r}")
    elif kind == "simulate":
        eq, ref_eq = values["equivocation"], ref["equivocation"]
        if ref_eq is not None and (
            eq is None or any(abs(eq[k] - ref_eq[k]) > TOL for k in ref_eq)
        ):
            errors.append(f"equivocation {eq} differs from the reference {ref_eq}")
        if not _binomial_ok(values["errors_union"], ref["errors_union"], values["trials"]):
            errors.append(
                f"union errors {values['errors_union']} outside the binomial interval around "
                f"the reference {ref['errors_union']} of {values['trials']}"
            )


def check_attempt(job: dict, attempt: dict, workdir: Path, chain, gaussian: dict, reference):
    """Failure messages for one job attempt (empty when it passed)."""
    if attempt["exit_code"] != 0:
        return [f"exit code {attempt['exit_code']}: {attempt['stderr'].strip()[-300:]}"]
    errors: list[str] = []
    kind = job["kind"]
    try:
        values = observed_values(job, attempt, workdir)
        if kind in ("region-degraded", "region-general"):
            _check_frontier(values, chain, errors, power_split=kind == "region-degraded")
        elif kind == "wiretap":
            expected = h2(chain[2]) - h2(chain[0])
            if abs(values - expected) > TOL:
                errors.append(f"wiretap {values!r} != h(p3) - h(p1) = {expected!r}")
        elif kind == "region-gaussian":
            rows = _read_csv(workdir / f"gaussian_{attempt['pass']}.csv", ["alpha", "r1_bits", "r2_bits"])
            last = len(rows) - 1
            if len(rows) != job["alphas"]:
                errors.append(f"Gaussian sweep has {len(rows)} rows, asked for {job['alphas']}")
            for i, (alpha, r1, r2) in enumerate(rows):
                e1, e2 = gaussian_point(gaussian, alpha)
                if abs(alpha - i / last) > TOL or abs(r1 - e1) > TOL or abs(r2 - e2) > TOL:
                    errors.append(f"Gaussian row {i} deviates from the closed form")
                    break
        elif kind == "check-frontier":
            if not attempt["stdout"].startswith("frontier reproduced"):
                errors.append(f"check frontier said {attempt['stdout']!r}")
        elif kind == "check-degraded":
            lines = attempt["stdout"].splitlines()
            for link in ("y1->y2", "y2->z"):
                if not any(line.startswith(f"{link}: feasible=true") for line in lines):
                    errors.append(f"check degraded did not find {link} feasible")
        elif kind == "simulate":
            _check_equivocation(values["equivocation"], values["code"], errors)
            if values["trials"] != job["trials"]:
                errors.append(f"ran {values['trials']} trials, asked for {job['trials']}")
            if not (
                max(values["errors_rx1"], values["errors_rx2"])
                <= values["errors_union"]
                <= values["trials"]
            ):
                errors.append("trial counts violate rx1, rx2 <= union <= trials")
        if reference is not None and job["name"] in reference:
            _compare(job, values, reference[job["name"]], errors)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors
