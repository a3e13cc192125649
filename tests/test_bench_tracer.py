"""The benchmark tracer's targets exist in the package.

bench/worker.py rebinds a list of (module, attribute) pairs to time each
layer.  A renamed or removed function would break the traced benchmark
run, so the list is checked here.  The worker is executed from its source
text, which writes no bytecode cache next to it.
"""

import types
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_every_traced_function_resolves():
    worker = types.ModuleType("bench_worker")
    exec(compile(WORKER.read_text(), str(WORKER), "exec"), worker.__dict__)
    assert worker.TRACED
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in worker.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
