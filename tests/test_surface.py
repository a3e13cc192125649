"""Every public name has a user: library code, the benchmark tracer, or the README."""

import ast
import io
import re
import tokenize
from pathlib import Path

import bcc_secrecy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bcc_secrecy"


def names_used_in_src() -> set[str]:
    """Identifiers in the package's code (not its docstrings or comments),
    skipping `__init__.py` and the name that each def or class line defines."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        previous = None
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                used.add(token.string)
            previous = token.string if token.type == tokenize.NAME else None
    return used


def names_traced_by_bench() -> set[str]:
    """The attribute names in bench/worker.py's TRACED table."""
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return {row.elts[1].value for row in node.value.elts}
    raise AssertionError("bench/worker.py has no TRACED table")


def names_in_readme_code() -> set[str]:
    """Identifiers inside the README's code blocks and inline code spans."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))


def test_every_public_name_has_a_user():
    users = names_used_in_src() | names_traced_by_bench() | names_in_readme_code()
    unused = sorted(set(bcc_secrecy.__all__) - users)
    assert unused == [], f"exported but used by no module, bench tracer or README: {unused}"

