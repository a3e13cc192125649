"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 invalid input file or flag value
(the violated invariant is named on stderr), 4 enumeration budget exceeded.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from .channels import BudgetExceeded, InvalidDistribution, Pmf, _check_budget, _check_finite
from .channels import _check_integer, _check_range, check_stochastic_degraded
from .coding import (
    DEFAULT_Z_SEQUENCE_BUDGET,
    build_double_binning,
    build_superposition,
    exact_equivocation,
    run_error_experiment,
)
from .formats import (
    SIG_DIGITS,
    format_sig,
    load_channel,
    parse_experiment,
    read_frontier_csv,
    read_json,
    write_csv,
    write_json,
)
from .information import mutual_information
from .regions import (
    DEFAULT_BUDGET,
    DEFAULT_RESOLUTION,
    GaussianParams,
    degraded_rate_terms,
    degraded_region_inner,
    gaussian_region_point,
    general_inner_bound,
    general_rate_terms,
    wiretap_secrecy_capacity,
)


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current stdout, or stderr if `err`.

    click.echo's default stream comes from a cache keyed weakly by stream
    but holding it, so every stream that run() was redirected to would stay
    alive for the life of the process; get_text_stream fixes up the stream
    (an ASCII stdout still prints non-ASCII paths) without that cache.
    """
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout", errors=None))


@click.group()
def cli():
    """Secrecy rate regions and coding experiments for broadcast channels."""


@cli.group()
def region():
    """Compute rate regions and write frontier CSV artifacts."""


@region.command("gaussian")
@click.option("--power", type=float, required=True, help="Transmit power P.")
@click.option("--n1", type=float, required=True, help="First receiver noise variance.")
@click.option("--n2", type=float, required=True, help="Second receiver noise variance.")
@click.option("--n3", type=float, required=True, help="Eavesdropper noise variance.")
@click.option("--alphas", type=int, default=101, show_default=True, help="Alpha grid size.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def region_gaussian(power, n1, n2, n3, alphas, out):
    """Closed-form Gaussian region, one CSV row per alpha (pre-Pareto)."""
    _check_integer(alphas, "--alphas", 2)
    _check_budget(alphas, DEFAULT_BUDGET, "grid too large: {} alphas", alphas)
    g = GaussianParams(power=power, n1=n1, n2=n2, n3=n3)
    grid = np.linspace(0.0, 1.0, alphas)
    rows = np.column_stack([grid, *gaussian_region_point(g, grid)])
    write_csv(out, ["alpha", "r1_bits", "r2_bits"], rows)
    _echo(f"wrote {len(rows)} rows to {out}")


def _write_frontier(out: str, frontier) -> None:
    write_csv(out, ["r1_bits", "r2_bits"], [[p.r1, p.r2] for p in frontier.points])


@region.command("degraded")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--grid", type=float, default=DEFAULT_RESOLUTION, show_default=True, help="Simplex step.")
@click.option("--ucard", type=int, default=None, help="Auxiliary cardinality (default |X|).")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def region_degraded(path, grid, ucard, budget, out):
    """Layered-scheme region frontier for a degraded discrete channel."""
    m = load_channel(path)
    frontier = degraded_region_inner(
        m.py1x, m.py2x, m.pzx, resolution=grid, u_card=ucard, budget=budget
    )
    _write_frontier(out, frontier)
    _echo(f"wrote {len(frontier.points)} frontier points to {out}")


@region.command("general")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--grid", type=float, default=DEFAULT_RESOLUTION, show_default=True, help="Simplex step.")
@click.option("--v1card", type=int, default=None, help="First auxiliary cardinality.")
@click.option("--v2card", type=int, default=None, help="Second auxiliary cardinality.")
@click.option(
    "--stochastic-x",
    is_flag=True,
    default=False,
    help="Grid the rows of P(x|v1,v2) instead of deterministic maps.",
)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def region_general(path, grid, v1card, v2card, stochastic_x, budget, out):
    """Double-binning inner-bound frontier for a general discrete channel."""
    m = load_channel(path)
    frontier = general_inner_bound(
        m.py1x,
        m.py2x,
        m.pzx,
        resolution=grid,
        v1_card=v1card,
        v2_card=v2card,
        deterministic_x=not stochastic_x,
        budget=budget,
    )
    _write_frontier(out, frontier)
    _echo(f"wrote {len(frontier.points)} frontier points to {out}")


@cli.command()
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--grid",
    type=float,
    default=DEFAULT_RESOLUTION,
    show_default=True,
    help="Step of the P(x|v) rows; P(v) is optimised exactly.",
)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True)
def wiretap(path, grid, budget):
    """Single-user secrecy capacity (main = y1 marginal, eavesdropper = z)."""
    m = load_channel(path)
    value = wiretap_secrecy_capacity(m.py1x, m.pzx, resolution=grid, budget=budget)
    _echo(f"secrecy_capacity_bits={format_sig(value)}")


@cli.group()
def check():
    """Consistency checks on channels and artifacts."""


@check.command("degraded")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True)
def check_degraded(path):
    """Check stochastic degradedness along the chain y1 -> y2 -> z."""
    m = load_channel(path)
    intermediates = {}
    for label, stronger, weaker in (("y1->y2", m.py1x, m.py2x), ("y2->z", m.py2x, m.pzx)):
        report = check_stochastic_degraded(stronger, weaker)
        _echo(
            f"{label}: feasible={'true' if report.feasible else 'false'} "
            f"residual={report.residual:.6e}"
        )
        if report.intermediate is not None:
            intermediates[label] = report.intermediate.matrix.tolist()
    _echo(json.dumps(intermediates, sort_keys=True))


@check.command("frontier")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--power", type=float, required=True)
@click.option("--n1", type=float, required=True)
@click.option("--n2", type=float, required=True)
@click.option("--n3", type=float, required=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
def check_frontier(path, power, n1, n2, n3, tol):
    """Recompute a Gaussian sweep CSV; --tol bounds deviation beyond its rounding."""
    _check_finite(tol, "--tol", 0)
    header, rows = read_frontier_csv(path)
    if header != ["alpha", "r1_bits", "r2_bits"]:
        raise InvalidDistribution(f"{path}: expected a Gaussian sweep CSV, got header {header}")
    g = GaussianParams(power=power, n1=n1, n2=n2, n3=n3)
    alpha = _check_range(rows[:, 0], f"{path}: alpha", 0, 1)
    # format_sig keeps SIG_DIGITS significant digits: each column may be off
    # by half a unit in its last digit (0 for a 0 entry).  r1 rises and r2
    # falls with alpha, so a faithful rate lies between the rates at the two
    # ends of its alpha's rounding interval, widened by its own rounding.
    with np.errstate(divide="ignore"):
        half = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(rows))) - (SIG_DIGITS - 1))
    lo = gaussian_region_point(g, np.maximum(alpha - half[:, 0], 0.0))
    hi = gaussian_region_point(g, np.minimum(alpha + half[:, 0], 1.0))
    worst = 0.0
    for value, s, a, b in zip(rows.T[1:], half.T[1:], lo, hi):
        low, high = np.minimum(a, b), np.maximum(a, b)
        worst = max(worst, float(np.max(low - s - value)), float(np.max(value - high - s)))
    if worst > tol:
        raise InvalidDistribution(f"{path}: frontier deviates by {worst:.3e} > {tol:.3e}")
    _echo(f"frontier reproduced, max deviation {worst:.3e}")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--trials", type=int, default=None, help="Override the config trial count.")
@click.option(
    "--budget",
    type=int,
    default=DEFAULT_Z_SEQUENCE_BUDGET,
    show_default=True,
    help="Cap on |Z|^n for exact equivocation enumeration.",
)
def simulate(config_path, out, seed, trials, budget):
    """Run a coding experiment described by a JSON config."""
    raw = read_json(config_path)
    if isinstance(raw, dict):
        raw.update({k: v for k, v in (("seed", seed), ("trials", trials)) if v is not None})
    config = parse_experiment(raw, base_dir=Path(config_path).parent)

    params = config.code
    m = config.marginals
    if config.scheme == "superposition":
        cb = build_superposition(params, config.pu, config.pxu)
        terms = degraded_rate_terms(config.pu, config.pxu, m.py1x, m.py2x, m.pzx)
    else:
        cb = build_double_binning(params, config.pv1, config.pv2, config.pxv, config.epsilon)
        joint = np.outer(config.pv1.probs, config.pv2.probs)
        terms = general_rate_terms(joint, config.pxv, m.py1x, m.py2x, m.pzx)
        del terms["i_v1_v2"]  # the two codebooks are drawn independently
        # I(X;Z) is not a term of the bound; both schemes report it.
        px = np.einsum("v,w,vwx->x", config.pv1.probs, config.pv2.probs, config.pxv)
        terms["i_x_z"] = mutual_information(Pmf(px), m.pzx)
    report = exact_equivocation(cb, m.pzx, z_budget=budget)
    trial = run_error_experiment(cb, (m.py1x, m.py2x), trials=config.trials, seed=params.seed)
    payload = {
        "scheme": config.scheme,
        "code": dataclasses.asdict(params),
        "rates": {
            "r1_bits": params.rate1,
            "r2_bits": params.rate2,
            "randomization1_bits": params.randomization_rate1,
            "randomization2_bits": params.randomization_rate2,
        },
        "mutual_informations": {key: max(value, 0.0) for key, value in terms.items()},
        "equivocation": dataclasses.asdict(report),
        "trials": {
            "count": trial.trials,
            "errors_rx1": trial.errors_rx1,
            "errors_rx2": trial.errors_rx2,
            "errors_union": trial.errors_union,
            "pe_estimate": trial.pe_estimate,
            "confidence_interval": list(trial.interval),
            "encoding_failures": trial.encoding_failures,
        },
    }
    write_json(out, payload)
    _echo(f"wrote results to {out}")


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        cli.main(args=list(argv), standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except BudgetExceeded as exc:
        _echo(f"error: {exc}", err=True)
        return 4
    except (ValueError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
