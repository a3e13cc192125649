import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcc_secrecy import (
    DiscreteChannel,
    InvalidDistribution,
    NegativeEntry,
    Pmf,
    build_double_binning,
    degraded_rate_pair,
    degraded_rate_terms,
    general_rate_corners,
    general_rate_terms,
)
from bcc_secrecy import cli
from bcc_secrecy.cli import run
from bcc_secrecy.formats import (
    CSV_BLOCK_ROWS,
    MarginalTriple,
    format_sig,
    parse_channel,
    parse_experiment,
    read_frontier_csv,
    write_csv,
    write_json,
)
from oracles import binary_entropy, cmi_direct, equivocation_binning_direct

BSC = DiscreteChannel.binary_symmetric


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# The modules that only a command body may load.
LIBRARY_MODULES = (
    "[m for m in ('numpy', 'bcc_secrecy.channels', 'bcc_secrecy.coding', 'bcc_secrecy.regions')"
    " if m in sys.modules]"
)
# Code that starts the command line without running a command: each of
# these must load click and no library module.
START_UPS = {
    "import": "import bcc_secrecy",
    "help": "from bcc_secrecy.cli import run\nassert run(['--help']) == 0",
    "subcommand-help": "from bcc_secrecy.cli import run\nassert run(['region', 'degraded', '--help']) == 0",
    "usage-error": "from bcc_secrecy.cli import run\nassert run(['region', 'degraded']) == 2",
    # Click answers a completion request from main() and exits.
    "completion": (
        "from bcc_secrecy.cli import main\n"
        "completion = {'_BCCSEC_COMPLETE': 'bash_complete', 'COMP_WORDS': 'bccsec reg', 'COMP_CWORD': '1'}\n"
        "os.environ.update(completion)\n"
        "sys.argv[0] = 'bccsec'\n"
        "try:\n    main()\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
        "for key in completion:\n    del os.environ[key]"
    ),
}


def run_python(code: str, *args: str) -> str:
    """Stdout of a fresh interpreter running `code` with `args`, the package on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def bsc_marginals_dict(p1, p2, p3):
    return {
        "type": "bcc-marginals",
        "py1x": BSC(p1).matrix.tolist(),
        "py2x": BSC(p2).matrix.tolist(),
        "pzx": BSC(p3).matrix.tolist(),
    }


@pytest.fixture()
def cascade_file(tmp_path):
    path = tmp_path / "cascade.json"
    path.write_text(json.dumps(bsc_marginals_dict(0.05, 0.14, 0.2336)))
    return str(path)


class TestParseChannel:
    def test_full_tensor_roundtrip(self):
        joint = np.einsum(
            "xa,xb,xc->xabc", BSC(0.1).matrix, BSC(0.2).matrix, BSC(0.3).matrix
        )
        data = {
            "type": "bcc",
            "x": 2,
            "y1": 2,
            "y2": 2,
            "z": 2,
            "joint": joint.ravel().tolist(),
        }
        parsed = parse_channel(data)
        assert isinstance(parsed, MarginalTriple)
        assert np.allclose(parsed.py1x.matrix, BSC(0.1).matrix, atol=1e-12)
        assert np.allclose(parsed.pzx.matrix, BSC(0.3).matrix, atol=1e-12)

    def test_marginal_shortcut(self):
        parsed = parse_channel(bsc_marginals_dict(0.1, 0.2, 0.3))
        assert isinstance(parsed, MarginalTriple)
        assert np.allclose(parsed.py2x.matrix, BSC(0.2).matrix)

    def test_gaussian(self):
        # Gaussian parameters come only from the region gaussian and check
        # frontier flags; no command reads a Gaussian channel file.
        data = {"type": "awgn-bcc", "power": 1, "n1": 0.25, "n2": 0.5, "n3": 1}
        with pytest.raises(InvalidDistribution, match="unknown channel type 'awgn-bcc'"):
            parse_channel(data)

    def test_grace_floor_clamps_tiny_negatives(self):
        data = bsc_marginals_dict(0.1, 0.2, 0.3)
        data["py1x"][0][1] = -1e-13
        data["py1x"][0][0] = 1.0
        parsed = parse_channel(data)
        assert parsed.py1x.matrix[0, 1] == 0.0

    def test_real_negative_rejected(self):
        data = bsc_marginals_dict(0.1, 0.2, 0.3)
        data["py1x"][0][1] = -0.1
        data["py1x"][0][0] = 1.1
        with pytest.raises(NegativeEntry):
            parse_channel(data)

    def test_missing_field_named(self):
        with pytest.raises(InvalidDistribution, match="'joint'"):
            parse_channel({"type": "bcc", "x": 2, "y1": 2, "y2": 2, "z": 2})

    def test_wrong_joint_length(self):
        with pytest.raises(InvalidDistribution, match="16"):
            parse_channel({"type": "bcc", "x": 2, "y1": 2, "y2": 2, "z": 2, "joint": [1.0]})

    @pytest.mark.parametrize(
        "row", [[True, 0.0], ["1", 0.0], [None, 1.0], [{}, 1.0], [1.0], [10**400, 0.0]]
    )
    def test_non_numeric_matrix_entry_rejected(self, row):
        data = bsc_marginals_dict(0.1, 0.2, 0.3)
        data["pzx"] = [row, [0.5, 0.5]]
        with pytest.raises(InvalidDistribution, match="'pzx' must be an array of numbers"):
            parse_channel(data)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_non_integer_alphabet_size_rejected(self, value):
        joint = np.full(16, 0.125).tolist()
        data = {"type": "bcc", "x": 2, "y1": 2, "y2": value, "z": 2, "joint": joint}
        with pytest.raises(InvalidDistribution, match="'y2' must be an integer"):
            parse_channel(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("power", "inf"),
            ("n3", "nan"),
            pytest.param("n2", "1e400", id="n2-beyond-float-range"),
            ("n1", "-inf"),
        ],
    )
    def test_non_finite_gaussian_field_exit_3(self, tmp_path, capsys, field, value):
        # Gaussian parameters are flags: both commands that take them refuse
        # a non-finite value, naming it (1e400 parses to inf).
        flags = {"power": "1", "n1": "0.25", "n2": "0.5", "n3": "1", field: value}
        args = [arg for key, flag in flags.items() for arg in (f"--{key}", flag)]
        out = tmp_path / "g.csv"
        assert run(["region", "gaussian", *args, "--alphas", "3", "--out", str(out)]) == 3
        assert not out.exists()
        # Rates 5, 7 and 9 lie far off every Gaussian sweep.
        out.write_text("alpha,r1_bits,r2_bits\n0,5,7\n1,9,5\n")
        assert run(["check", "frontier", "--file", str(out), *args]) == 3
        err = capsys.readouterr().err
        assert err.count(f"{field} must be a finite number, got {float(value)!r}") == 2

    @pytest.mark.parametrize(
        "flags", [("1", "5e-324", "1", "2"), ("1e300", "1e-10", "1e-10", "1e-10")], ids=["inf", "nan"]
    )
    def test_overflowing_gaussian_snr_exit_3(self, tmp_path, capsys, flags):
        # Each once wrote inf or nan rates with exit 0, which check frontier then refused.
        args = [arg for key, flag in zip(("power", "n1", "n2", "n3"), flags) for arg in (f"--{key}", flag)]
        out = tmp_path / "g.csv"
        assert run(["region", "gaussian", *args, "--alphas", "3", "--out", str(out)]) == 3
        assert "largest SNR power / n1 must be a finite number, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_gaussian_sum_exit_3(self, tmp_path, capsys):
        # power / n1 is finite here, but power + n3 is not: the alpha = 0.5
        # row was written with r2 = 0.2075 (closed form 0.0466) and exit 0.
        flags = ["--power", "1e308", "--n1", "1", "--n2", "1e308", "--n3", "1.5e308"]
        out = tmp_path / "g.csv"
        assert run(["region", "gaussian", *flags, "--alphas", "3", "--out", str(out)]) == 3
        assert "power + n3 must be a finite number, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_type(self):
        with pytest.raises(InvalidDistribution, match="unknown channel type"):
            parse_channel({"type": "mystery"})

    @pytest.mark.parametrize("kind,field", [("marginals", "joint"), ("marginals", "x"), ("bcc", "pzx")])
    def test_unknown_field_rejected(self, tmp_path, capsys, kind, field):
        # A field of the other channel type was ignored, whatever it held.
        data = bsc_marginals_dict(0.1, 0.2, 0.3)
        if kind == "bcc":
            joint = np.full(16, 0.125).tolist()
            data = {"type": "bcc", "x": 2, "y1": 2, "y2": 2, "z": 2, "joint": joint}
        data[field] = 2
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(data))
        assert run(["check", "degraded", "--file", str(path)]) == 3
        assert capsys.readouterr().err == f"error: channel description has an unknown field {field!r}\n"


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1.0, 0.123456789012345], [2.0, 3.0]])
        header, rows = read_frontier_csv(path)
        assert header == ["a", "b"]
        assert rows[0][1] == pytest.approx(0.123456789012, rel=1e-11)

    @pytest.mark.parametrize(
        "n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7]
    )
    def test_blocks_write_the_one_shot_bytes(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = rng.uniform(-1e3, 1e3, size=(n_rows, 3))
        rows[::5] = np.round(rows[::5])  # some integral values: "%g" drops their point
        rows[1::3] *= 10.0 ** rng.integers(-300, 300, size=rows[1::3].shape)  # mixed magnitudes
        rows[2::7, 0] = -0.0
        rows[3::11] = 0.0  # zero rows
        rows[4::13, 1] = 5e-324
        rows[5::13, 2] = -np.finfo(np.float64).max
        lines = ["a,b,c"] + [",".join(format_sig(v) for v in row) for row in rows.tolist()]
        expected = "\n".join(lines) + "\n"
        write_csv(tmp_path / "array.csv", ["a", "b", "c"], rows)
        write_csv(tmp_path / "list.csv", ["a", "b", "c"], rows.tolist())
        assert (tmp_path / "array.csv").read_text() == expected
        assert (tmp_path / "list.csv").read_text() == expected

    def test_gaussian_rows_are_not_held_whole(self, tmp_path):
        # Holding every row as Python floats, then as lines, then as one
        # text peaked at 68.8 MiB for these 200,000 rows (a 9.1 MB CSV).
        out = tmp_path / "g.csv"
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        tracemalloc.start()
        try:
            assert run(["region", "gaussian", *args, "--alphas", "200000", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 68.8 / 3 * 2**20
        assert len(out.read_text().splitlines()) == 200_001

    def test_no_temp_residue(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["a"], [[1.0]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask):
        # The temporary file starts as 0600 whatever the umask.
        old = os.umask(umask)
        try:
            write_csv(tmp_path / "out.csv", ["a"], [[1.0]])
            write_json(tmp_path / "out.json", {"a": 1})
            (tmp_path / "plain").write_text("")
        finally:
            os.umask(old)
        plain = (tmp_path / "plain").stat().st_mode & 0o777
        assert plain == 0o666 & ~umask
        for name in ("out.csv", "out.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == plain, name

    def test_bare_file_name_goes_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv("out.csv", ["a"], [[1.0]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,zap\n")
        with pytest.raises(InvalidDistribution):
            read_frontier_csv(path)

    @pytest.mark.parametrize(
        "body", ["1,2\n3\n", "1,2,3\n4,5,6\n", "1,2\n3,4,5\n6\n", ""],
        ids=["short", "long", "ragged-sum-matches", "header-only"],
    )
    def test_rows_that_do_not_match_the_header_rejected(self, tmp_path, capsys, body):
        # One flat split parses every value, so a row's field count comes
        # from its commas: the third case holds 2 x 3 values in 3 rows.
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n{body}")
        with pytest.raises(InvalidDistribution, match=r"rows do not match header \['a', 'b'\]$"):
            read_frontier_csv(path)
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["check", "frontier", "--file", str(path), *args]) == 3
        assert capsys.readouterr().err == f"error: {path}: rows do not match header ['a', 'b']\n"

    def test_csv_values_parse_as_float_does(self, tmp_path):
        # Surrounding blanks, blank lines, CRLF endings and Python float
        # spellings are accepted, as float() accepts them.
        path = tmp_path / "ok.csv"
        path.write_bytes(b"a,b\r\n\r\n 1.5 , 2e-3\r\n-0,1_000\r\n\n")
        header, rows = read_frontier_csv(path)
        assert header == ["a", "b"]
        assert rows.tobytes() == np.array([[1.5, 2e-3], [-0.0, 1000.0]]).tobytes()

    @pytest.mark.parametrize("row", ["1.0,inf", "nan,1.0"])
    def test_non_finite_csv_value_rejected(self, tmp_path, row):
        # the check's rounding slack for inf is inf, and max() skips nan
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n{row}\n")
        with pytest.raises(InvalidDistribution, match="non-finite"):
            read_frontier_csv(path)


class TestCliRegionGaussian:
    def test_writes_alpha_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        code = run(
            [
                "region", "gaussian", "--power", "1", "--n1", "0.25", "--n2", "0.5",
                "--n3", "1", "--alphas", "101", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == "alpha,r1_bits,r2_bits"
        assert len(text) == 102

    def test_run_keeps_no_redirected_stream_alive(self, tmp_path):
        # In-process callers redirect stdout and stderr per run(); neither a
        # message nor an error may pin the redirected streams afterwards.
        out = str(tmp_path / "region.csv")
        args = ["region", "gaussian", "--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        streams = []
        for alphas in ("3", "1"):
            for _ in range(5):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    run([*args, "--alphas", alphas, "--out", out])
                assert stdout.getvalue() or stderr.getvalue()
                streams += [weakref.ref(stdout), weakref.ref(stderr)]
                del stdout, stderr
        gc.collect()
        assert [ref() for ref in streams] == [None] * len(streams)

    def test_ascii_stdout_prints_non_ascii_path(self, tmp_path):
        # click re-wraps an ASCII stdout so a non-ASCII path still prints.
        out = tmp_path / "région.csv"
        argv = ["region", "gaussian", "--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1",
                "--alphas", "3", "--out", str(out)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONIOENCODING": "ascii",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "bcc_secrecy.cli", *argv], env=env, capture_output=True
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.startswith(b"wrote 3 rows to ") and out.exists()

    def test_idempotent_bytes(self, tmp_path):
        out = tmp_path / "region.csv"
        argv = [
            "region", "gaussian", "--power", "2", "--n1", "0.5", "--n2", "1",
            "--n3", "2", "--alphas", "21", "--out", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_check_frontier_roundtrip(self, tmp_path):
        out = tmp_path / "region.csv"
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["region", "gaussian", *args, "--alphas", "31", "--out", str(out)]) == 0
        assert run(["check", "frontier", "--file", str(out), *args]) == 0
        assert run(["check", "frontier", "--file", str(out), *args, "--tol", "0"]) == 0

    def test_check_frontier_detects_tampering(self, tmp_path):
        out = tmp_path / "region.csv"
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["region", "gaussian", *args, "--alphas", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        alpha, r1, r2 = lines[5].split(",")
        lines[5] = ",".join([alpha, str(float(r1) + 1e-6), r2])
        out.write_text("\n".join(lines) + "\n")
        assert run(["check", "frontier", "--file", str(out), *args]) == 3

    def test_check_frontier_accepts_rates_above_one_bit(self, tmp_path):
        # r1 reaches about 1.7 bits here, where 12 significant digits
        # round by up to 5e-12, more than the default tolerance
        out = tmp_path / "region.csv"
        args = ["--power", "10", "--n1", "0.1", "--n2", "0.5", "--n3", "1"]
        assert run(["region", "gaussian", *args, "--out", str(out)]) == 0
        assert run(["check", "frontier", "--file", str(out), *args]) == 0
        lines = out.read_text().splitlines()
        alpha, r1, r2 = lines[60].split(",")
        lines[60] = ",".join([alpha, r1, format_sig(float(r2) + 1e-10)])
        out.write_text("\n".join(lines) + "\n")
        assert run(["check", "frontier", "--file", str(out), *args]) == 3

    @pytest.mark.parametrize("alpha", ["1.5", "-0.5"])
    def test_check_frontier_quotes_out_of_range_alpha(self, tmp_path, capsys, alpha):
        out = tmp_path / "region.csv"
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["region", "gaussian", *args, "--alphas", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        lines[3] = ",".join([alpha, *lines[3].split(",")[1:]])
        out.write_text("\n".join(lines) + "\n")
        assert run(["check", "frontier", "--file", str(out), *args]) == 3
        assert capsys.readouterr().err.endswith(f"alpha must lie in [0, 1], got {alpha}\n")

    def test_check_frontier_quotes_first_out_of_range_alpha(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["region", "gaussian", *args, "--alphas", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        for row, alpha in ((3, "1.25"), (7, "-0.5")):
            lines[row] = ",".join([alpha, *lines[row].split(",")[1:]])
        out.write_text("\n".join(lines) + "\n")
        assert run(["check", "frontier", "--file", str(out), *args]) == 3
        assert capsys.readouterr().err.endswith("alpha must lie in [0, 1], got 1.25\n")

    def test_alphas_capped_by_the_default_budget(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "g.csv"
        args = ["region", "gaussian", "--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run([*args, "--alphas", "5000001", "--out", str(out)]) == 4
        assert "5000001 alphas exceed budget 5000000" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "DEFAULT_BUDGET", 3)
        assert run([*args, "--alphas", "4", "--out", str(out)]) == 4
        assert not out.exists()
        assert run([*args, "--alphas", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_invalid_params_exit_3(self, tmp_path):
        code = run(
            [
                "region", "gaussian", "--power", "1", "--n1", "2", "--n2", "0.5",
                "--n3", "1", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-12", "-1"])
    def test_check_frontier_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        # Under --tol nan no deviation compares greater, so this CSV passed.
        out = tmp_path / "region.csv"
        out.write_text("alpha,r1_bits,r2_bits\n0,5,7\n1,9,5\n")
        args = ["--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run(["check", "frontier", "--file", str(out), *args, "--tol", tol]) == 3
        # These were click usage errors (exit 2); every other bad value exits 3.
        rule = "nonnegative" if tol in ("-1e-12", "-1") else "a finite number"
        assert capsys.readouterr().err == f"error: --tol must be {rule}, got {float(tol)!r}\n"
        assert run(["check", "frontier", "--file", str(out), *args, "--tol", "1"]) == 3


class TestCliRegionDiscrete:
    def test_degraded_deterministic_artifact(self, tmp_path, cascade_file):
        out = tmp_path / "frontier.csv"
        argv = [
            "region", "degraded", "--file", cascade_file, "--grid", "0.05",
            "--ucard", "2", "--out", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        assert first.startswith(b"r1_bits,r2_bits\n")
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_general_small_grid(self, tmp_path, cascade_file):
        out = tmp_path / "general.csv"
        argv = [
            "region", "general", "--file", cascade_file, "--grid", "0.2", "--out", str(out),
        ]
        assert run(argv) == 0
        header, rows = read_frontier_csv(out)
        assert header == ["r1_bits", "r2_bits"]
        assert len(rows) >= 1

    def test_budget_exit_4(self, tmp_path, cascade_file):
        code = run(
            [
                "region", "degraded", "--file", cascade_file, "--grid", "0.01",
                "--budget", "100", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("command", [["region", "degraded"], ["region", "general"], ["wiretap"]])
    def test_huge_grid_budget_message_is_short(self, tmp_path, capsys, cascade_file, command):
        # 1/1e-300 steps: the counts have hundreds of digits and print in short form.
        out = tmp_path / "x.csv"
        argv = [*command, "--file", cascade_file, "--grid", "1e-300"]
        assert run(argv + (["--out", str(out)] if command[0] == "region" else [])) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: grid too large: ") and len(err) < 200, err
        assert re.search(r"\de[5-9]\d\d ", err) and not re.search(r"\d{16}", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["region", "degraded"], ["region", "general"], ["wiretap"]])
    def test_negative_budget_exit_3(self, tmp_path, capsys, cascade_file, command):
        # A malformed budget is an input error, not an exceeded budget.
        out = tmp_path / "x.csv"
        argv = [*command, "--file", cascade_file, "--budget", "-1"]
        assert run(argv + (["--out", str(out)] if command[0] == "region" else [])) == 3
        assert capsys.readouterr().err == "error: budget must be nonnegative, got -1\n"
        assert not out.exists()

    def test_gaussian_file_rejected_for_discrete_region(self, tmp_path, capsys):
        path = tmp_path / "awgn.json"
        path.write_text(json.dumps({"type": "awgn-bcc", "power": 1, "n1": 1, "n2": 1, "n3": 1}))
        code = run(
            ["region", "degraded", "--file", str(path), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        assert "unknown channel type 'awgn-bcc'" in capsys.readouterr().err

    def test_malformed_json_exit_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["region", "degraded", "--file", str(path), "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("command", ["channel", "config", "frontier"])
    def test_undecodable_file_exit_3_naming_it(self, tmp_path, capsys, command):
        # A byte that is not UTF-8 once exited 3 with the codec's message alone.
        path = tmp_path / "latin1.txt"
        path.write_bytes(b'{"type": "bcc-marginals\xff"}')
        argv = {
            "channel": ["region", "degraded", "--file", str(path), "--out", str(tmp_path / "x.csv")],
            "config": ["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")],
            "frontier": ["check", "frontier", "--file", str(path), "--power", "1",
                         "--n1", "0.25", "--n2", "0.5", "--n3", "1"],
        }[command]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text (") and "can't decode byte 0xff" in err

    def test_usage_error_exit_2(self):
        assert run(["region", "degraded", "--nonsense"]) == 2

    RECIPROCAL = "resolution must be 1/k for integer k, got 0.3"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["region", "degraded", "--grid", "0.3"], RECIPROCAL),
            (["region", "general", "--grid", "0.3"], RECIPROCAL),
            (["wiretap", "--grid", "0.3"], RECIPROCAL),
            (["region", "degraded", "--grid", "0"], "resolution must lie in (0, 1], got 0.0"),
            (["region", "degraded", "--ucard", "0"], "u_card must lie in [1, 12], got 0"),
            (["region", "general", "--v1card", "13"], "v1_card must lie in [1, 12], got 13"),
            (["region", "general", "--v2card", "0"], "v2_card must lie in [1, 12], got 0"),
            # 1 / 5e-324 overflows to inf, and round(inf) raised OverflowError: a traceback.
            (["region", "degraded", "--grid", "5e-324"], "resolution must be 1/k for integer k, got 5e-324"),
        ],
    )
    def test_bad_grid_exit_3_before_budget(self, tmp_path, capsys, cascade_file, args, message):
        out = tmp_path / "x.csv"
        argv = [*args, "--file", cascade_file, "--budget", "0"]
        assert run(argv + (["--out", str(out)] if args[0] == "region" else [])) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_file_error_before_grid_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        argv = ["region", "degraded", "--file", str(path), "--ucard", "0"]
        assert run([*argv, "--out", str(tmp_path / "x.csv")]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_tensor_and_marginal_files_give_identical_outputs(self, tmp_path, capsys):
        # Dyadic crossovers make every product and sum exact, so the tensor's
        # marginals are the marginal file's matrices bit for bit.
        py1x, py2x, pzx = BSC(0.0625), BSC(0.125), BSC(0.25)
        tensor = {
            "type": "bcc", "x": 2, "y1": 2, "y2": 2, "z": 2,
            "joint": np.einsum("xa,xb,xc->xabc", py1x.matrix, py2x.matrix, pzx.matrix)
            .ravel()
            .tolist(),
        }
        marginals = bsc_marginals_dict(0.0625, 0.125, 0.25)
        outputs = []
        for name, data in (("tensor", tensor), ("marginals", marginals)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            files = []
            for argv in (
                ["region", "degraded", "--ucard", "2", "--grid", "0.05"],
                ["region", "general", "--grid", "0.1"],
                ["region", "general", "--stochastic-x", "--grid", "0.25"],
            ):
                out = tmp_path / f"{name}-{len(files)}.csv"
                assert run([*argv, "--file", str(path), "--out", str(out)]) == 0
                files.append(out.read_bytes())
            capsys.readouterr()
            assert run(["wiretap", "--file", str(path), "--grid", "0.01"]) == 0
            assert run(["check", "degraded", "--file", str(path)]) == 0
            outputs.append((files, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert "feasible=true" in outputs[0][1]


class TestCliWiretapAndCheck:
    def test_wiretap_value(self, capsys, cascade_file):
        assert run(["wiretap", "--file", cascade_file, "--grid", "0.1"]) == 0
        out = capsys.readouterr().out
        expected = format_sig(binary_entropy(0.2336) - binary_entropy(0.05))
        assert out == f"secrecy_capacity_bits={expected}\n"

    def test_wiretap_vcard_removed(self, cascade_file):
        assert run(["wiretap", "--file", cascade_file, "--grid", "0.1", "--vcard", "2"]) == 2

    def test_wiretap_grid_help(self, capsys):
        assert run(["wiretap", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "Step of the P(x|v) rows; P(v) is optimised exactly." in help_text
        assert "--vcard" not in help_text

    def test_wiretap_budget_exit_4(self, cascade_file):
        argv = ["wiretap", "--file", cascade_file, "--grid", "0.001", "--budget", "1000000"]
        assert run(argv) == 4

    def test_simulate_loads_no_scipy(self, tmp_path, superposition_config):
        binning = json.loads(superposition_config.read_text())
        del binning["pu"], binning["pxu"]
        binning.update(scheme="double-binning", pv1=[0.5, 0.5], pv2=[0.5, 0.5], epsilon=0.4,
                       pxv=[[[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9], [0.9, 0.1]]])
        binning_config = tmp_path / "bin.json"
        binning_config.write_text(json.dumps(binning))
        code = (
            "import sys; from bcc_secrecy.cli import run; "
            f"[run(['simulate', '--config', c, '--out', c + '.out']) for c in sys.argv[1:]]; "
            f"print({SCIPY_MODULES})"
        )
        configs = [str(superposition_config), str(binning_config)]
        assert run_python(code, *configs).splitlines()[-1] == "[]"
        for config in configs:
            trials = json.loads(Path(config + ".out").read_text())["trials"]
            lo, hi = trials["confidence_interval"]
            assert 0.0 <= lo <= trials["pe_estimate"] <= hi <= 1.0 and lo < hi

    def test_cli_import_loads_no_scipy(self):
        code = f"import sys, bcc_secrecy.cli; print({SCIPY_MODULES}, {LIBRARY_MODULES})"
        assert run_python(code) == "[] []\n"

    @pytest.mark.parametrize("start", START_UPS)
    def test_start_up_loads_click_alone(self, capsys, cascade_file, start):
        # The first real command then loads the library and prints what it
        # prints in a process that loaded everything up front.
        code = (
            f"import os, sys\n{START_UPS[start]}\nprint('loaded', {LIBRARY_MODULES})\n"
            "from bcc_secrecy.cli import run\n"
            "assert run(['check', 'degraded', '--file', sys.argv[1]]) == 0\n"
        )
        out = "\n" + run_python(code, cascade_file)
        assert run(["check", "degraded", "--file", cascade_file]) == 0
        assert out.endswith("\nloaded []\n" + capsys.readouterr().out)
        if start == "completion":
            assert out.startswith("\nplain,region\n")

    def test_name_rebound_before_the_first_command_is_kept(self, cascade_file):
        code = (
            "import sys\nfrom bcc_secrecy import cli\n"
            "def rebound(path):\n    raise cli.InvalidDistribution('rebound')\n"
            "cli.load_channel = rebound\n"
            "print(cli.run(['check', 'degraded', '--file', sys.argv[1]]))\n"
        )
        assert run_python(code, cascade_file) == "3\n"

    def test_binary_wiretap_and_feasible_check_load_no_scipy(self, tmp_path, cascade_file):
        # The binary hull is a monotone chain and a checked least-squares
        # witness proves degradedness; Qhull (|X| >= 3) and the LP (no
        # witness found) still run, with the values they gave before.
        ternary = tmp_path / "ternary.json"
        ternary.write_text(json.dumps({
            "type": "bcc-marginals",
            "py1x": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            "py2x": [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]],
            "pzx": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        }))
        anti = tmp_path / "anti.json"
        anti.write_text(json.dumps(bsc_marginals_dict(0.1, 0.05, 0.2)))
        code = (
            "import sys; from bcc_secrecy.cli import run; "
            "run(['wiretap', '--file', sys.argv[1], '--grid', '0.005']); "
            "run(['check', 'degraded', '--file', sys.argv[1]]); "
            f"print({SCIPY_MODULES}); "
            "run(['wiretap', '--file', sys.argv[2], '--grid', '0.1']); "
            "run(['check', 'degraded', '--file', sys.argv[3]]); "
            "print('scipy.spatial' in sys.modules, 'scipy.optimize' in sys.modules)"
        )
        lines = run_python(code, cascade_file, str(ternary), str(anti)).splitlines()
        assert lines[0] == "secrecy_capacity_bits=0.497837358907"
        assert lines[1].startswith("y1->y2: feasible=true ")
        assert lines[2].startswith("y2->z: feasible=true ")
        assert lines[4] == "[]"
        assert lines[5] == "secrecy_capacity_bits=0.563486767603"
        assert lines[6] == "y1->y2: feasible=false residual=5.000000e-02"
        assert lines[7].startswith("y2->z: feasible=true ")
        assert json.loads(lines[8])["y1->y2"] == [[1.0, 0.0], [0.0, 1.0]]
        assert lines[9] == "True True"

    def test_check_degraded_on_cascade(self, capsys, cascade_file):
        assert run(["check", "degraded", "--file", cascade_file]) == 0
        out = capsys.readouterr().out
        assert "y1->y2: feasible=true" in out
        assert "y2->z: feasible=true" in out
        matrices = json.loads(out.splitlines()[-1])
        assert set(matrices) == {"y1->y2", "y2->z"}

    def test_check_degraded_infeasible_still_exit_0(self, capsys, tmp_path):
        path = tmp_path / "anti.json"
        path.write_text(json.dumps(bsc_marginals_dict(0.2, 0.05, 0.3)))
        assert run(["check", "degraded", "--file", str(path)]) == 0
        assert "y1->y2: feasible=false" in capsys.readouterr().out


# Valid values of each scheme's own config fields, and which fields each scheme owns.
SCHEME_FIELDS = {
    "pu": [0.5, 0.5],
    "pxu": [[0.9, 0.1], [0.1, 0.9]],
    "pv1": [0.5, 0.5],
    "pv2": [0.5, 0.5],
    "pxv": [[[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9], [0.9, 0.1]]],
    "epsilon": 0.4,
}
OWN_FIELDS = {"superposition": ("pu", "pxu"), "double-binning": ("pv1", "pv2", "pxv", "epsilon")}


@pytest.fixture()
def superposition_config(tmp_path, cascade_file):
    config = {
        "scheme": "superposition",
        "n": 3,
        "m1": 2,
        "m2": 2,
        "l1": 2,
        "l2": 2,
        "seed": 7,
        "trials": 50,
        "channel": cascade_file,
        "pu": [0.5, 0.5],
        "pxu": [[0.9, 0.1], [0.1, 0.9]],
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    return path


class TestCliSimulate:
    def test_superposition_results(self, tmp_path, superposition_config):
        out = tmp_path / "results.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["scheme"] == "superposition"
        assert set(payload["mutual_informations"]) == {
            "i_u_y2", "i_u_z", "i_x_y1_given_u", "i_x_z",
        }
        gaps = payload["equivocation"]["gaps"]
        assert len(gaps) == 3 and all(g >= -1e-12 for g in gaps)
        assert payload["trials"]["count"] == 50
        assert payload["rates"]["r1_bits"] == pytest.approx(1 / 3)

    def test_conditional_mutual_information_matches_oracle(self, tmp_path, superposition_config):
        out = tmp_path / "results.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 0
        value = json.loads(out.read_text())["mutual_informations"]["i_x_y1_given_u"]
        pxu = np.array([[0.9, 0.1], [0.1, 0.9]])
        joint = np.einsum("u,ux,xy->uxy", [0.5, 0.5], pxu, BSC(0.05).matrix)
        assert value == pytest.approx(cmi_direct(joint, 1, 2, (0,)), abs=1e-12)

    def test_identical_invocation_byte_identical(self, tmp_path, superposition_config):
        out = tmp_path / "repeat.json"
        argv = ["simulate", "--config", str(superposition_config), "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, superposition_config):
        # The long benchmark shape: 16 roles over 2^20 sequences, so each
        # pair's sum is a (1024 x 4) @ (4 x 1024) product that BLAS may split.
        config = json.loads(superposition_config.read_text())
        config.update(n=20, trials=5)
        superposition_config.write_text(json.dumps(config))
        code = "import sys; from bcc_secrecy.cli import run; sys.exit(run(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2", "1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            out = tmp_path / f"out{len(outputs)}.json"
            argv = ["simulate", "--config", str(superposition_config), "--out", str(out)]
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True)
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 4

    def test_seed_override_changes_output(self, tmp_path, superposition_config):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out_a)]) == 0
        assert run(
            ["simulate", "--config", str(superposition_config), "--seed", "99", "--out", str(out_b)]
        ) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["code"]["seed"] == 7 and b["code"]["seed"] == 99
        assert a != b

    def test_double_binning_results(self, tmp_path, cascade_file):
        config = {
            "scheme": "double-binning",
            "n": 4,
            "m1": 2,
            "m2": 2,
            "l1": 4,
            "l2": 4,
            "seed": 3,
            "trials": 40,
            "epsilon": 0.4,
            "channel": cascade_file,
            "pv1": [0.5, 0.5],
            "pv2": [0.5, 0.5],
            "pxv": [[[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9], [0.9, 0.1]]],
        }
        path = tmp_path / "bin.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "results.json"
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        eq = payload["equivocation"]
        rates = payload["rates"]
        r1, r2 = rates["r1_bits"], rates["r2_bits"]
        assert eq["gaps"] == [r1 - eq["re1"], r2 - eq["re2"], r1 + r2 - eq["re12"]]
        assert max(eq["re1"], eq["re2"]) <= eq["re12"] <= min(eq["re1"] + eq["re2"], r1 + r2)
        assert "i_v1v2_z" in payload["mutual_informations"]
        assert payload["trials"]["encoding_failures"] >= 0

    def test_terms_recombine_to_the_region_kernels(self, tmp_path, cascade_file):
        # Both configs give positive terms, so the clamp at 0 leaves them as
        # the kernels computed them and the recombination must be exact.
        channels = (BSC(0.05), BSC(0.14), BSC(0.2336))
        pxv = [[[0.95, 0.05], [0.65, 0.35]], [[0.35, 0.65], [0.05, 0.95]]]
        configs = {
            "superposition": {"pu": [0.5, 0.5], "pxu": [[0.9, 0.1], [0.1, 0.9]]},
            "double-binning": {"pv1": [0.5, 0.5], "pv2": [0.5, 0.5], "pxv": pxv},
        }
        terms = {}
        for scheme, fields in configs.items():
            config = {"scheme": scheme, "n": 4, "m1": 2, "m2": 2, "trials": 10,
                      "channel": cascade_file, **fields}
            path = tmp_path / f"{scheme}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"{scheme}.out.json"
            assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
            terms[scheme] = json.loads(out.read_text())["mutual_informations"]
            assert all(value > 0.0 for value in terms[scheme].values())

        t = terms["superposition"]
        pu, pxu = Pmf([0.5, 0.5]), DiscreteChannel([[0.9, 0.1], [0.1, 0.9]])
        assert t == degraded_rate_terms(pu, pxu, *channels)
        r1 = max(t["i_x_y1_given_u"] + t["i_u_z"] - t["i_x_z"], 0.0)
        r2 = max(t["i_u_y2"] - t["i_u_z"], 0.0)
        assert degraded_rate_pair(pu, pxu, *channels) == (r1, r2)

        t = terms["double-binning"]
        joint = np.full((2, 2), 0.25)
        kernel = general_rate_terms(joint, pxv, *channels)
        i_v1_v2 = kernel.pop("i_v1_v2")
        assert i_v1_v2 == 0.0
        assert {k: v for k, v in t.items() if k != "i_x_z"} == kernel
        a = max(t["i_v1_y1"] - t["i_v1_z"], 0.0)
        b = max(t["i_v2_y2"] - t["i_v2_z"], 0.0)
        s = max(t["i_v1_y1"] + t["i_v2_y2"] - t["i_v1v2_z"] - i_v1_v2, 0.0)
        r1a, r2b = min(a, s), min(b, s)
        corners = ((r1a, min(b, s - r1a)), (min(a, s - r2b), r2b))
        assert general_rate_corners(joint, pxv, *channels) == corners

    def test_budget_caps_only_the_sequence_count(self, tmp_path, superposition_config):
        # n=12 over binary z: |Z|^n = 4096 fits a budget of 4096 exactly.
        config = json.loads(superposition_config.read_text())
        superposition_config.write_text(json.dumps(dict(config, n=12, trials=20)))
        outputs = []
        for extra in ([], ["--budget", "4096"]):
            out = tmp_path / f"budget{len(extra)}.json"
            argv = ["simulate", "--config", str(superposition_config), "--out", str(out), *extra]
            assert run(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_awgn_channel_rejected(self, tmp_path):
        config = {
            "scheme": "superposition",
            "n": 3,
            "m1": 2,
            "m2": 2,
            "seed": 1,
            "channel": {"type": "awgn-bcc", "power": 1, "n1": 0.25, "n2": 0.5, "n3": 1},
            "pu": [0.5, 0.5],
            "pxu": [[0.9, 0.1], [0.1, 0.9]],
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize(
        "field,value", [("n", 4.9), ("m1", True), ("l1", 2.5), ("seed", "7"), ("trials", 50.5)]
    )
    def test_non_integer_field_exit_3(self, tmp_path, capsys, superposition_config, field, value):
        config = json.loads(superposition_config.read_text())
        config[field] = value
        superposition_config.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 3
        kind = "a positive integer" if field == "trials" else "an integer"
        assert f"field '{field}' must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["superposition", "double-binning"])
    @pytest.mark.parametrize("trials", [0, -2, None])
    def test_trials_below_one_exit_3_before_any_codebook(
        self, tmp_path, capsys, monkeypatch, cascade_file, scheme, trials
    ):
        def no_codebook(*args):
            raise AssertionError("built a codebook for an invalid trial count")

        monkeypatch.setattr(cli, "build_superposition", no_codebook)
        monkeypatch.setattr(cli, "build_double_binning", no_codebook)
        config = {
            "scheme": scheme, "n": 4, "m1": 2, "m2": 2, "channel": cascade_file,
            **{key: SCHEME_FIELDS[key] for key in OWN_FIELDS[scheme]},
        }
        # None: a valid file, with --trials 0 on the command line.
        config["trials"] = 10 if trials is None else trials
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        override = ["--trials", "0"] if trials is None else []
        assert run(["simulate", "--config", str(path), "--out", str(out), *override]) == 3
        assert "field 'trials' must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.1"])
    def test_non_finite_epsilon_exit_3(self, tmp_path, capsys, cascade_file, value):
        config = {
            "scheme": "double-binning", "n": 4, "m1": 2, "m2": 2, "l1": 4, "l2": 4,
            "trials": 50, "epsilon": value, "channel": cascade_file,
            "pv1": [0.5, 0.5], "pv2": [0.5, 0.5],
            "pxv": [[[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9], [0.9, 0.1]]],
        }
        path = tmp_path / "bin.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert "field 'epsilon' must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["scheme", "channel", "n", "m1", "pu", "pxu"])
    def test_missing_experiment_field_exit_3(self, tmp_path, capsys, superposition_config, field):
        config = json.loads(superposition_config.read_text())
        del config[field]
        superposition_config.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 3
        assert f"experiment config is missing the '{field}' field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["trails", "l_1", "pzx"])
    def test_unknown_experiment_field_exit_3(self, tmp_path, capsys, superposition_config, field):
        # "trails": 10 ran the default 1,000 trials and "l_1": 4 gave l1 = 1, both exiting 0.
        config = json.loads(superposition_config.read_text())
        config[field] = 4
        superposition_config.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: experiment config has an unknown field {field!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scheme, field",
        [("superposition", key) for key in OWN_FIELDS["double-binning"]]
        + [("double-binning", key) for key in OWN_FIELDS["superposition"]],
    )
    def test_other_schemes_field_exit_3(self, tmp_path, capsys, cascade_file, scheme, field):
        # A superposition config holding "pv1": "not even a pmf" once exited 0.
        config = {
            "scheme": scheme, "n": 3, "m1": 2, "m2": 2, "trials": 10, "channel": cascade_file,
            **{key: SCHEME_FIELDS[key] for key in OWN_FIELDS[scheme]},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "ok.json")]) == 0
        config[field] = SCHEME_FIELDS[field]
        path.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith(f"error: experiment config has an unknown field {field!r}\n")
        assert not out.exists()

    def test_missing_channel_field_still_names_the_channel(self, tmp_path, capsys, cascade_file):
        marginals = json.loads(Path(cascade_file).read_text())
        del marginals["pzx"]
        config = {"scheme": "superposition", "n": 3, "m1": 2, "m2": 2, "channel": marginals,
                  "pu": [0.5, 0.5], "pxu": [[0.9, 0.1], [0.1, 0.9]]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 3
        assert "channel description is missing the 'pzx' field" in capsys.readouterr().err

    def test_non_integer_channel_size_exit_3(self, tmp_path, capsys):
        joint = np.full(16, 0.125).tolist()
        path = tmp_path / "bcc.json"
        path.write_text(json.dumps({"type": "bcc", "x": True, "y1": 2, "y2": 2, "z": 2, "joint": joint}))
        code = run(["region", "degraded", "--file", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "field 'x' must be an integer" in capsys.readouterr().err

    def test_z_budget_exit_4(self, tmp_path, superposition_config):
        code = run(
            [
                "simulate", "--config", str(superposition_config), "--budget", "4",
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == 4

    def test_huge_blocklength_exit_4_with_a_short_message(self, tmp_path, capsys, superposition_config):
        # |Z|^n = 2^20000 has 6,021 digits, past Python's integer-to-string limit.
        config = json.loads(superposition_config.read_text())
        config.update(n=20000, m1=1, m2=1, l1=1, l2=1)
        superposition_config.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["simulate", "--config", str(superposition_config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "error: |Z|^n = 2^20000 observation sequences exceed budget 1048576\n"
        assert not out.exists()

    def test_negative_z_budget_exit_3(self, tmp_path, capsys, superposition_config):
        out = tmp_path / "o.json"
        argv = ["simulate", "--config", str(superposition_config), "--budget", "-1", "--out", str(out)]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: budget must be nonnegative, got -1\n"
        assert not out.exists()

    def test_no_partial_output_on_failure(self, tmp_path, superposition_config):
        out = tmp_path / "o.json"
        run(["simulate", "--config", str(superposition_config), "--budget", "4", "--out", str(out)])
        assert not out.exists()


class TestSeedContract:
    """Golden outputs of one small config per scheme.

    The codebooks, messages, dithers and channel noise are all functions of
    the seed, so these counts pin the whole trial path: sampler, encoders,
    channel draws, the order in which one Generator serves them (in blocks
    of trials), and ML decoders.  A change to the seed contract must
    re-record them on purpose.
    The double-binning equivocation was recorded when exact_equivocation
    took that scheme, and is checked against the brute-force oracle below:
    both pairs with w1 = 1 send erasures, so the eavesdropper learns W1.
    """

    PXV = [[[0.95, 0.05], [0.65, 0.35]], [[0.35, 0.65], [0.05, 0.95]]]
    CASES = {
        "superposition": (
            {"pu": [0.5, 0.5], "pxu": [[0.85, 0.15], [0.15, 0.85]], "l1": 2, "l2": 2, "seed": 5},
            {"errors_rx1": 116, "errors_rx2": 61, "errors_union": 164, "encoding_failures": 0},
            (0.11399610906677982, 0.07423863696422495, 0.18398241204441668),
        ),
        "double-binning": (
            {"pv1": [0.5, 0.5], "pv2": [0.5, 0.5], "pxv": PXV, "l1": 4, "l2": 4, "epsilon": 0.12,
             "seed": 6},
            {"errors_rx1": 277, "errors_rx2": 390, "errors_union": 408, "encoding_failures": 245},
            (0.0, 0.12229274473685203, 0.12229274473685203),
        ),
    }

    @pytest.mark.parametrize("scheme", sorted(CASES))
    def test_golden_outputs(self, tmp_path, cascade_file, scheme):
        fields, counts, equivocation = self.CASES[scheme]
        config = {"scheme": scheme, "n": 8, "m1": 2, "m2": 2, "trials": 500,
                  "channel": cascade_file, **fields}
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        layers = {k: fields[k] for k in ("l1", "l2", "seed")}
        assert payload["code"] == {"n": 8, "m1": 2, "m2": 2, **layers}
        assert payload["trials"]["count"] == 500
        assert {k: payload["trials"][k] for k in counts} == counts
        got = [payload["equivocation"][k] for k in ("re1", "re2", "re12")]
        assert got == pytest.approx(equivocation, abs=1e-12, rel=0)

    def test_double_binning_equivocation_matches_the_oracle(self, cascade_file):
        fields, _, equivocation = self.CASES["double-binning"]
        config = parse_experiment(
            {"scheme": "double-binning", "n": 8, "m1": 2, "m2": 2, "channel": cascade_file, **fields}
        )
        cb = build_double_binning(config.code, config.pv1, config.pv2, config.pxv, config.epsilon)
        assert cb.typical.any(axis=2).tolist() == [[True, True], [False, False]]
        want = equivocation_binning_direct(
            cb.v1_words, cb.v2_words, config.pv1.probs, config.pv2.probs, cb.x_map,
            config.marginals.pzx.matrix, cb.epsilon,
        )
        assert equivocation == pytest.approx(want, abs=1e-13, rel=0)


# Malformed values of every JSON kind, nested a little.
json_junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10)
    | st.integers(min_value=2**62)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
small = st.integers(1, 3)


@st.composite
def stochastic(draw, *shape):
    """A nonnegative array of the given shape whose last axis sums to 1."""
    cells = math.prod(shape)
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)), float)
    weights = weights.reshape(shape)
    weights[..., 0] += weights.sum(axis=-1) == 0
    return (weights / weights.sum(axis=-1, keepdims=True)).tolist()


@st.composite
def with_fault(draw, fields: dict):
    """Valid fields, then at most one of them replaced by junk or dropped."""
    data = {key: draw(value) for key, value in fields.items()}
    fault = draw(st.sampled_from(["none", "junk", "drop"]))
    if fault != "none":
        key = draw(st.sampled_from(sorted(data)))
        if fault == "junk":
            data[key] = draw(json_junk)
        else:
            del data[key]
    return data


def channels_with_input(nx: int):
    outputs = st.tuples(small, small, small)
    marginals = outputs.flatmap(lambda o: with_fault({
        "type": st.just("bcc-marginals"),
        "py1x": stochastic(nx, o[0]), "py2x": stochastic(nx, o[1]), "pzx": stochastic(nx, o[2]),
    }))
    tensor = outputs.flatmap(lambda o: with_fault({
        "type": st.just("bcc"), "x": st.just(nx), "y1": st.just(o[0]), "y2": st.just(o[1]),
        "z": st.just(o[2]), "joint": stochastic(nx, math.prod(o)).map(lambda rows: sum(rows, [])),
    }))
    return marginals | tensor


channels = (
    small.flatmap(channels_with_input)
    | with_fault({"type": st.just("awgn-bcc")}
                 | {key: st.floats(0.01, 10) for key in ("power", "n1", "n2", "n3")})
    | json_junk
)


@st.composite
def experiments(draw):
    nx, nu, a1, a2 = draw(st.tuples(small, small, small, small))
    scheme = draw(st.sampled_from(["superposition", "double-binning"]))
    own = {
        "superposition": {"pu": stochastic(nu), "pxu": stochastic(nu, nx)},
        "double-binning": {
            "epsilon": st.floats(0.01, 1.0),
            "pv1": stochastic(a1), "pv2": stochastic(a2), "pxv": stochastic(a1, a2, nx),
        },
    }[scheme]
    return draw(with_fault({
        "scheme": st.just(scheme),
        "channel": channels_with_input(nx) | st.just("channel.json"),
        "n": st.integers(1, 4), "m1": small, "m2": small, "l1": small, "l2": small,
        "seed": st.integers(0, 2**70), "trials": st.integers(1, 4),
        **own,
    }))


class TestFileFormatFuzz:
    """Any channel or experiment file ends in exit 0, 3 or 4, never a traceback."""

    @given(channel=channels)
    @settings(max_examples=120, deadline=None)
    def test_channel_files(self, tmp_path_factory, channel):
        path = tmp_path_factory.mktemp("channel") / "channel.json"
        path.write_text(json.dumps(channel))
        out = str(path.parent / "frontier.csv")
        # A small budget keeps |X| = 3 searches quick: they exit 4.
        search = ["--file", str(path), "--grid", "0.5", "--budget", "5000"]
        for argv in (
            ["check", "degraded", "--file", str(path)],
            ["wiretap", *search],
            ["region", "degraded", *search, "--out", out],
            ["region", "general", *search, "--out", out],
        ):
            assert run(argv) in (0, 3, 4)

    @given(
        channel=channels, experiment=experiments() | json_junk, seed=st.none() | st.integers(0, 9)
    )
    @settings(max_examples=120, deadline=None)
    def test_experiment_files(self, tmp_path_factory, channel, experiment, seed):
        folder = tmp_path_factory.mktemp("experiment")
        (folder / "channel.json").write_text(json.dumps(channel))
        config = folder / "experiment.json"
        config.write_text(json.dumps(experiment))
        argv = ["simulate", "--config", str(config), "--out", str(folder / "out.json")]
        assert run(argv + ([] if seed is None else ["--seed", str(seed)])) in (0, 3, 4)
