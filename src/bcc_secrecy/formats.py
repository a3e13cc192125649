"""Channel and experiment file formats, plus atomic artifact writers.

Two channel descriptions are accepted, discriminated by "type":

* "bcc": alphabet sizes x, y1, y2, z and a flat row-major "joint" array
  of length x*y1*y2*z holding P(y1, y2, z | x), index order (x, y1, y2, z).
* "bcc-marginals": the three marginal matrices "py1x", "py2x", "pzx",
  one row per input symbol.

Both load to a ``MarginalTriple``: everything downstream reads only
P(y1|x), P(y2|x) and P(z|x), so a "bcc" tensor is summed down.

Entries in [-1e-12, 0) are clamped to zero at load time to absorb
decimal round-off in hand-written files; anything below that floor, a
field that the description's type (or the config's scheme) does not
define, or any other invariant violation is rejected with the violated
invariant named.
Output files are written to a temporary file and renamed into place, so
a failed run never leaves a partial artifact.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .channels import DiscreteChannel, InvalidDistribution, Pmf, _check_finite, _check_integer
from .channels import _check_numbers, _check_shared_input, _check_sizes, _check_stochastic
from .coding import CodeParams

NEGATIVE_GRACE = 1e-12
SIG_DIGITS = 12
CSV_BLOCK_ROWS = 4096
# The fields of each channel type, and of each scheme's experiment config.
CHANNEL_FIELDS = {
    "bcc": ("type", "x", "y1", "y2", "z", "joint"),
    "bcc-marginals": ("type", "py1x", "py2x", "pzx"),
}
_SHARED_FIELDS = ("scheme", "channel", "n", "m1", "m2", "l1", "l2", "seed", "trials")
EXPERIMENT_FIELDS = {
    "superposition": (*_SHARED_FIELDS, "pu", "pxu"),
    "double-binning": (*_SHARED_FIELDS, "pv1", "pv2", "pxv", "epsilon"),
}


@dataclass(frozen=True)
class MarginalTriple:
    """The three single-receiver channels of a broadcast setup."""

    py1x: DiscreteChannel
    py2x: DiscreteChannel
    pzx: DiscreteChannel


def _array(data: dict, key: str, document: str = "channel description") -> np.ndarray:
    """A field that must be a number or a nested array of them, with the grace floor applied."""
    out = _check_numbers(_require(data, key, document), f"field {key!r}")
    return np.where((out < 0.0) & (out >= -NEGATIVE_GRACE), 0.0, out)


def _require(data: dict, key: str, document: str = "channel description"):
    if key not in data:
        raise InvalidDistribution(f"{document} is missing the {key!r} field")
    return data[key]


def _reject_unknown(data: dict, fields, document: str) -> None:
    for key in data:
        if key not in fields:
            raise InvalidDistribution(f"{document} has an unknown field {key!r}")


def _read_text(path: str | Path) -> str:
    """The file at `path` as UTF-8 text; undecodable bytes name the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidDistribution(f"{path}: not UTF-8 text ({exc})") from exc


def read_json(path: str | Path):
    """The JSON document in the file at `path`; malformed JSON names the file."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidDistribution(f"{path}: not valid JSON ({exc})") from exc


def parse_channel(data: dict) -> MarginalTriple:
    """Parse a channel description dict, naming the violated invariant on error."""
    if not isinstance(data, dict):
        raise InvalidDistribution(f"channel description must be an object, got {type(data).__name__}")
    kind = _require(data, "type")
    if not isinstance(kind, str) or kind not in CHANNEL_FIELDS:
        raise InvalidDistribution(f"unknown channel type {kind!r}")
    _reject_unknown(data, CHANNEL_FIELDS[kind], "channel description")
    if kind == "bcc":
        keys = ("x", "y1", "y2", "z")
        sizes = tuple(_check_integer(_require(data, k), f"field {k!r}") for k in keys)
        if any(s < 1 for s in sizes):
            raise InvalidDistribution(f"alphabet sizes must be positive, got {sizes}")
        flat = _array(data, "joint")
        _check_sizes(flat.shape, (math.prod(sizes),), f"joint array shape for sizes {sizes}")
        tensor = _check_stochastic(flat.reshape(sizes), 4, 1, "broadcast tensor", "slice for input")
        axes = ((2, 3), (1, 3), (1, 2))  # summed out for y1, y2 and z
        return MarginalTriple(*(DiscreteChannel(tensor.sum(axis=a)) for a in axes))
    matrices = [DiscreteChannel(_array(data, k)) for k in ("py1x", "py2x", "pzx")]
    _check_shared_input(*matrices)
    return MarginalTriple(*matrices)


def load_channel(path: str | Path) -> MarginalTriple:
    return parse_channel(read_json(path))


@dataclass(frozen=True, eq=False)
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
    document = "experiment config"
    scheme = _require(data, "scheme", document)
    if not isinstance(scheme, str) or scheme not in EXPERIMENT_FIELDS:
        raise InvalidDistribution(f"unknown scheme {scheme!r}")
    _reject_unknown(data, EXPERIMENT_FIELDS[scheme], document)
    channel = _require(data, "channel", document)
    if isinstance(channel, str):
        path = Path(channel)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        marginals = load_channel(path)
    else:
        marginals = parse_channel(channel)

    pu = pxu = pv1 = pv2 = pxv = None
    if scheme == "superposition":
        pu = Pmf(_array(data, "pu", document))
        pxu = DiscreteChannel(_array(data, "pxu", document))
    else:
        pv1 = Pmf(_array(data, "pv1", document))
        pv2 = Pmf(_array(data, "pv2", document))
        pxv = _array(data, "pxv", document)

    fields = {"l1": 1, "l2": 1, "seed": 0, "trials": 1000, "epsilon": 0.1, **data}
    # JSON integers only: 4.9, 4.0, true and "4" are all rejected.
    trials = _check_integer(fields["trials"], "field 'trials'", 1)
    code = {}
    for key in ("n", "m1", "m2", "l1", "l2", "seed"):
        code[key] = _check_integer(_require(fields, key, document), f"field {key!r}")
    return ExperimentConfig(
        scheme=scheme,
        code=CodeParams(**code),
        trials=trials,
        marginals=marginals,
        pu=pu,
        pxu=pxu,
        pv1=pv1,
        pv2=pv2,
        pxv=pxv,
        epsilon=_check_finite(fields["epsilon"], "field 'epsilon'"),
    )


def _atomic_write(path: str | Path, pieces: Iterable[str]) -> None:
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, target)
    except BaseException:
        os.unlink(tmp_name)
        raise


def format_sig(value: float) -> str:
    """SIG_DIGITS significant digits, the interchange precision for CSV artifacts."""
    return "%.*g" % (SIG_DIGITS, value)


def write_csv(path: str | Path, header: list[str], rows: np.ndarray | list[list[float]]) -> None:
    """Header, then one format_sig line per row, CSV_BLOCK_ROWS rows to one % operation."""
    line = ",".join([f"%.{SIG_DIGITS}g"] * len(header)) + "\n"
    starts = range(0, len(rows), CSV_BLOCK_ROWS)
    blocks = (np.asarray(rows[i : i + CSV_BLOCK_ROWS], dtype=np.float64) for i in starts)
    text = ((line * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], text))


def write_json(path: str | Path, payload) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def read_frontier_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the rows of a CSV, one finite float per header field.

    The rows' values go through one flat split and `float`; a row with
    another number of fields is told by its comma count.
    """
    lines = [line.strip() for line in _read_text(path).split("\n") if line.strip()]
    if not lines:
        raise InvalidDistribution(f"{path}: empty CSV")
    header, body = lines[0].split(","), lines[1:]
    values = ",".join(body).split(",") if body else []
    try:
        rows = np.fromiter(map(float, values), np.float64, count=len(values))
    except ValueError as exc:
        raise InvalidDistribution(f"{path}: malformed CSV row ({exc})") from exc
    if {line.count(",") for line in body} != {len(header) - 1}:
        raise InvalidDistribution(f"{path}: rows do not match header {header}")
    rows = rows.reshape(len(body), len(header))
    if not np.all(np.isfinite(rows)):
        raise InvalidDistribution(f"{path}: non-finite value in a CSV row")
    return header, rows
