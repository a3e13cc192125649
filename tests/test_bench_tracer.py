"""The benchmark tracer's targets exist in the package.

bench/worker.py rebinds a list of (module, attribute) pairs to time each
layer.  A renamed or removed function would break the traced benchmark
run, so the list is checked here.  The worker is executed from its source
text, which writes no bytecode cache next to it.
"""

import json
import os
import subprocess
import sys
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


# Installs the worker's tracer around `check degraded` in a fresh interpreter:
# first before any command has run, then after one has.  Prints the layers
# each tracer saw, the spans a run after uninstall added, and whether
# uninstall put every original back.
CONTRACT = """
import sys, types
from pathlib import Path

worker = types.ModuleType("bench_worker")
exec(compile(Path(sys.argv[1]).read_text(), sys.argv[1], "exec"), worker.__dict__)
argv = ["check", "degraded", "--file", sys.argv[2]]
# Each traced name's own function, as the module that defines it holds it.
originals = [(module, attr, getattr(sys.modules[f"bcc_secrecy.{span.split('.')[0]}"], attr))
             for module, attr, span, _ in worker.TRACED]
for when in ("before", "after"):
    tracer = worker.Tracer()
    tracer.install()
    assert worker.cli.run(argv) == 0
    tracer.uninstall()
    seen = len(tracer.spans)
    assert worker.cli.run(argv) == 0
    restored = all(getattr(module, attr) is orig for module, attr, orig in originals)
    print(when, sorted({span[0] for span in tracer.spans}), len(tracer.spans) - seen, restored)
"""


def test_tracer_wraps_cli_names_before_and_after_the_first_command(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "type": "bcc-marginals",
        "py1x": [[0.95, 0.05], [0.05, 0.95]],
        "py2x": [[0.86, 0.14], [0.14, 0.86]],
        "pzx": [[0.7664, 0.2336], [0.2336, 0.7664]],
    }))
    src = str(WORKER.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CONTRACT, str(WORKER), str(chain)],
                          env=env, capture_output=True, text=True, check=True)
    layers = "['channels.check_stochastic_degraded', 'formats.load_channel']"
    lines = [line for line in done.stdout.splitlines() if line.startswith(("before", "after"))]
    assert lines == [f"before {layers} 0 True", f"after {layers} 0 True"]
