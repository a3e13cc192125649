"""Seeded inputs and job lists for the three benchmark workloads.

A seed fixes the BSC chain p1 < p2 < p3 shared by every channel file and
the codebook/trial seeds of the simulate jobs.  Seed 0 is the README chain
(0.05, 0.14, 0.2336) and is the only seed with recorded reference values.
The Gaussian parameters are the README's for every seed.

Each job is a ``bccsec`` argument list.  ``{pass}`` in an argument is
replaced by the pass label, so every pass writes its own output files and
the harness can check all of them after the worker exits.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
# Not used while the benchmark was written; later changes confirm their
# claims on it as well as on the seeds they tuned with.
HELD_OUT_SEED = 20080626
README_CHAIN = (0.05, 0.14, 0.2336)
GAUSSIAN = {"power": 1.0, "n1": 0.25, "n2": 0.5, "n3": 1.0}
GAUSSIAN_ALPHAS = 20001

WORKLOADS = ("regions", "equivocation", "trials")

# Pair map P(x=1 | v1, v2) for the double-binning job.  Both auxiliaries
# must move x: the XOR map gives I(V1;Y1) = I(V2;Y2) = 0.
_PAIR_MAP_ONE = ((0.05, 0.35), (0.65, 0.95))
_CLOUD_MAP = [[0.85, 0.15], [0.15, 0.85]]


def bsc_chain(seed: int) -> tuple[float, float, float]:
    """Crossover probabilities p1 < p2 < p3 for this seed.

    Each is the README value moved by at most 0.01, so the order holds and
    the number of distinct candidate rate points the hull sorts, which
    depends on the chain, stays close from seed to seed.
    """
    if seed == DEFAULT_SEED:
        return README_CHAIN
    rng = random.Random(seed)
    return tuple(round(p + 0.02 * rng.random() - 0.01, 4) for p in README_CHAIN)


def _bsc(p: float) -> list[list[float]]:
    return [[1.0 - p, p], [p, 1.0 - p]]


def _simplex_count(dim: int, steps: int) -> int:
    return math.comb(steps + dim - 1, dim - 1)


def degraded_candidates(nx: int, u_card: int, steps: int) -> int:
    """|P(u) grid| x |P(x|u) grid|, the closed form of degraded_region_inner."""
    return _simplex_count(u_card, steps) * _simplex_count(nx, steps) ** u_card


def general_candidates(nx: int, v1: int, v2: int, steps: int) -> int:
    """|P(v1,v2) grid| x deterministic x-maps, as in general_inner_bound."""
    return _simplex_count(v1 * v2, steps) * nx ** (v1 * v2)


def wiretap_candidates(nx: int, v_card: int, steps: int) -> int:
    """|P(v) grid| x |P(x|v) grid|, as in wiretap_secrecy_capacity."""
    return _simplex_count(v_card, steps) * _simplex_count(nx, steps) ** v_card


def _job(name, kind, argv, **extra) -> dict:
    return {"name": name, "kind": kind, "argv": argv, **extra}


def _simulate(name: str, config: str, **extra) -> dict:
    return _job(
        name, "simulate", ["simulate", "--config", config, "--out", f"{name}_{{pass}}.json"], **extra
    )


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir and return its plan.

    The plan holds the job list (timed order), the name of the warm-up
    job, and the closed-form work each job does.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    chain = bsc_chain(seed)
    channel = {"type": "bcc-marginals", "py1x": _bsc(chain[0]), "py2x": _bsc(chain[1]), "pzx": _bsc(chain[2])}
    (workdir / "channel.json").write_text(json.dumps(channel))
    code_seed = 1000 * seed
    g = GAUSSIAN
    gauss = ["--power", str(g["power"]), "--n1", str(g["n1"]), "--n2", str(g["n2"]), "--n3", str(g["n3"])]

    if workload == "regions":
        jobs = [
            _job("degraded", "region-degraded",
                 ["region", "degraded", "--file", "channel.json", "--grid", "0.05", "--ucard", "3",
                  "--out", "degraded_{pass}.csv"],
                 candidates=degraded_candidates(2, 3, 20)),
            _job("general", "region-general",
                 ["region", "general", "--file", "channel.json", "--grid", "0.05",
                  "--out", "general_{pass}.csv"],
                 candidates=general_candidates(2, 2, 2, 20)),
            _job("wiretap", "wiretap",
                 ["wiretap", "--file", "channel.json", "--grid", "0.005", "--budget", "10000000"],
                 candidates=wiretap_candidates(2, 2, 200)),
            _job("gaussian", "region-gaussian",
                 ["region", "gaussian", *gauss, "--alphas", str(GAUSSIAN_ALPHAS),
                  "--out", "gaussian_{pass}.csv"],
                 alphas=GAUSSIAN_ALPHAS),
            _job("check-frontier", "check-frontier",
                 ["check", "frontier", "--file", "gaussian_{pass}.csv", *gauss]),
            _job("check-degraded", "check-degraded", ["check", "degraded", "--file", "channel.json"]),
        ]
        return {"chain": chain, "jobs": jobs, "warmup": "check-degraded"}

    cloud = {"channel": "channel.json", "scheme": "superposition", "pu": [0.5, 0.5], "pxu": _CLOUD_MAP}
    if workload == "equivocation":
        configs = {
            # 256 roles over 65,536 z^n: many roles, cache-sized arrays.
            "wide": dict(cloud, n=16, m1=4, m2=4, l1=4, l2=4, seed=code_seed + 1, trials=200),
            # 16 roles over 2^20 z^n (the default cap): arrays far beyond L2.
            "long": dict(cloud, n=20, m1=2, m2=2, l1=2, l2=2, seed=code_seed + 2, trials=200),
        }
        warmup = "wide"
    else:
        pxv = [[[1.0 - q, q] for q in row] for row in _PAIR_MAP_ONE]
        configs = {
            "superposition": dict(cloud, n=12, m1=4, m2=4, l1=4, l2=4, seed=code_seed + 3, trials=5000),
            "double-binning": {
                "channel": "channel.json", "scheme": "double-binning",
                "n": 12, "m1": 4, "m2": 4, "l1": 8, "l2": 8, "epsilon": 0.15,
                "seed": code_seed + 4, "trials": 3000,
                "pv1": [0.5, 0.5], "pv2": [0.5, 0.5], "pxv": pxv,
            },
        }
        warmup = "superposition"
    jobs = []
    for name, cfg in configs.items():
        path = f"{name}.config.json"
        (workdir / path).write_text(json.dumps(cfg))
        # |Z|^n * m1*m2*l1*l2 cells for exact equivocation (|Z| = 2); the
        # double-binning scheme has no equivocation report.
        roles = cfg["m1"] * cfg["m2"] * cfg["l1"] * cfg["l2"]
        cells = 2 ** cfg["n"] * roles if cfg["scheme"] == "superposition" else 0
        jobs.append(_simulate(name, path, cells=cells, trials=cfg["trials"]))
    return {"chain": chain, "jobs": jobs, "warmup": warmup}
