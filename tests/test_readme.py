import contextlib
import io
import json
import re
import shlex
import time
from pathlib import Path

from bcc_secrecy import DiscreteChannel
from bcc_secrecy.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), {})
    assert time.perf_counter() - start < 1.0
    assert "RatePoint" in out.getvalue() and "EquivocationReport" in out.getvalue()


def test_cli_block_runs(tmp_path, monkeypatch):
    """Every `bccsec` line of the README's CLI block exits 0, on the README's chain and config."""
    text = README.read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
        for line in block.splitlines()
        if line.startswith("bccsec ")
    ]
    assert len(lines) == 7
    (config,) = [b for b in re.findall(r"```jsonc\n(.*?)```", text, flags=re.DOTALL) if '"scheme"' in b]
    bsc = DiscreteChannel.binary_symmetric
    crossovers = {"py1x": 0.05, "py2x": 0.14, "pzx": 0.2336}  # the library example's chain
    chain = {key: bsc(p).matrix.tolist() for key, p in crossovers.items()}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "channel.json").write_text(json.dumps({"type": "bcc-marginals", **chain}))
    (tmp_path / "experiment.json").write_text(re.sub(r"//.*", "", config))
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
