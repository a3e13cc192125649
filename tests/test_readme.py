import contextlib
import io
import re
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), {})
    assert time.perf_counter() - start < 1.0
    assert "RatePoint" in out.getvalue() and "EquivocationReport" in out.getvalue()
