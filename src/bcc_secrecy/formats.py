"""Channel and experiment file formats, plus atomic artifact writers.

Three channel descriptions are accepted, discriminated by "type":

* "bcc": alphabet sizes x, y1, y2, z and a flat row-major "joint" array
  of length x*y1*y2*z holding P(y1, y2, z | x), index order (x, y1, y2, z).
* "bcc-marginals": the three marginal matrices "py1x", "py2x", "pzx",
  one row per input symbol.
* "awgn-bcc": "power" and noise variances "n1", "n2", "n3".

Entries in [-1e-12, 0) are clamped to zero at load time to absorb
decimal round-off in hand-written files; anything below that floor, or
any other invariant violation, is rejected with the violated invariant
named.  Output files are written to a temporary file and renamed into
place, so a failed run never leaves a partial artifact.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import (
    BroadcastChannel,
    DiscreteChannel,
    InvalidDistribution,
    Pmf,
    marginal_channel,
)
from .coding import CodeParams
from .regions import GaussianParams

NEGATIVE_GRACE = 1e-12


@dataclass(frozen=True)
class MarginalTriple:
    """The three single-receiver channels of a broadcast setup."""

    py1x: DiscreteChannel
    py2x: DiscreteChannel
    pzx: DiscreteChannel


def _array(data: dict, key: str) -> np.ndarray:
    """A field that must be a JSON number or a nested array of them, with the grace floor applied.

    Strings, booleans, null, objects, ragged arrays and integers beyond
    the float range are rejected naming the field.
    """
    value = _require(data, key)
    try:
        cells = np.array(value, dtype=object)
        if not all(type(cell) in (int, float) for cell in cells.flat):
            raise TypeError
        out = cells.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        message = f"field {key!r} must be an array of numbers, got {value!r}"
        raise InvalidDistribution(message) from None
    out[(out < 0.0) & (out >= -NEGATIVE_GRACE)] = 0.0
    return out


def _require(data: dict, key: str):
    if key not in data:
        raise InvalidDistribution(f"channel description is missing the {key!r} field")
    return data[key]


def _integer(data: dict, key: str, default: int | None = None) -> int:
    """A field that must be a JSON integer: 4.9, 4.0, true and "4" are all rejected."""
    value = _require(data, key) if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDistribution(f"field {key!r} must be an integer, got {value!r}")
    return value


def _number(data: dict, key: str, default: float | None = None) -> float:
    """A field that must be a finite JSON number: true, "0.25", NaN and Infinity are rejected."""
    value = _require(data, key) if default is None else data.get(key, default)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # The comparison is False for NaN, for infinities and for integers beyond the float range.
    if not (numeric and abs(value) <= sys.float_info.max):
        raise InvalidDistribution(f"field {key!r} must be a finite number, got {value!r}")
    return float(value)


def parse_channel(data: dict) -> BroadcastChannel | MarginalTriple | GaussianParams:
    """Parse a channel description dict, naming the violated invariant on error."""
    if not isinstance(data, dict):
        raise InvalidDistribution(f"channel description must be an object, got {type(data).__name__}")
    kind = _require(data, "type")
    if kind == "bcc":
        sizes = tuple(_integer(data, k) for k in ("x", "y1", "y2", "z"))
        if any(s < 1 for s in sizes):
            raise InvalidDistribution(f"alphabet sizes must be positive, got {sizes}")
        flat = _array(data, "joint")
        expected = math.prod(sizes)
        if flat.ndim != 1 or flat.size != expected:
            raise InvalidDistribution(
                f"joint array has {flat.size} entries, expected {expected} for sizes {sizes}"
            )
        return BroadcastChannel(flat.reshape(sizes))
    if kind == "bcc-marginals":
        matrices = [
            DiscreteChannel(_array(data, k))
            for k in ("py1x", "py2x", "pzx")
        ]
        if not (matrices[0].input_size == matrices[1].input_size == matrices[2].input_size):
            raise InvalidDistribution("marginal matrices disagree on the input alphabet size")
        return MarginalTriple(*matrices)
    if kind == "awgn-bcc":
        return GaussianParams(**{k: _number(data, k) for k in ("power", "n1", "n2", "n3")})
    raise InvalidDistribution(f"unknown channel type {kind!r}")


def load_channel(path: str | Path) -> BroadcastChannel | MarginalTriple | GaussianParams:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidDistribution(f"{path}: not valid JSON ({exc})") from exc
    return parse_channel(data)


def as_marginals(channel: BroadcastChannel | MarginalTriple) -> MarginalTriple:
    """Reduce any discrete channel description to its three marginals."""
    if isinstance(channel, MarginalTriple):
        return channel
    if isinstance(channel, BroadcastChannel):
        return MarginalTriple(
            py1x=marginal_channel(channel, "y1"),
            py2x=marginal_channel(channel, "y2"),
            pzx=marginal_channel(channel, "z"),
        )
    raise InvalidDistribution("a discrete channel is required, not a Gaussian description")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed simulation request (see the experiment JSON schema in README)."""

    scheme: str
    code: CodeParams
    trials: int
    marginals: MarginalTriple
    pu: Pmf | None
    pxu: DiscreteChannel | None
    pv1: Pmf | None
    pv2: Pmf | None
    pxv: np.ndarray | None
    epsilon: float


def parse_experiment(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidDistribution(f"experiment config must be an object, got {type(data).__name__}")
    scheme = _require(data, "scheme")
    if scheme not in ("superposition", "double-binning"):
        raise InvalidDistribution(f"unknown scheme {scheme!r}")
    channel = _require(data, "channel")
    if isinstance(channel, str):
        path = Path(channel)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        channel = load_channel(path)
    else:
        channel = parse_channel(channel)
    marginals = as_marginals(channel)

    pu = pxu = pv1 = pv2 = pxv = None
    if scheme == "superposition":
        pu = Pmf(_array(data, "pu"))
        pxu = DiscreteChannel(_array(data, "pxu"))
    else:
        pv1 = Pmf(_array(data, "pv1"))
        pv2 = Pmf(_array(data, "pv2"))
        pxv = _array(data, "pxv")

    return ExperimentConfig(
        scheme=scheme,
        code=CodeParams(
            n=_integer(data, "n"),
            m1=_integer(data, "m1"),
            m2=_integer(data, "m2"),
            l1=_integer(data, "l1", 1),
            l2=_integer(data, "l2", 1),
            seed=_integer(data, "seed", 0),
        ),
        trials=_integer(data, "trials", 1000),
        marginals=marginals,
        pu=pu,
        pxu=pxu,
        pv1=pv1,
        pv2=pv2,
        pxv=pxv,
        epsilon=_number(data, "epsilon", 0.1),
    )


def _atomic_write(path: str | Path, text: str) -> None:
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        os.unlink(tmp_name)
        raise


def format_sig(value: float) -> str:
    """12 significant digits, the interchange precision for CSV artifacts."""
    return f"{value:.12g}"


def write_csv(path: str | Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_sig(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_frontier_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise InvalidDistribution(f"{path}: empty CSV")
    header = lines[0].split(",")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise InvalidDistribution(f"{path}: malformed CSV row ({exc})") from exc
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise InvalidDistribution(f"{path}: rows do not match header {header}")
    if not np.all(np.isfinite(rows)):
        raise InvalidDistribution(f"{path}: non-finite value in a CSV row")
    return header, rows
