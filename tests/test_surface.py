"""Every public name has a user (library code, the benchmark tracer, or the README), and
every rejection of caller input goes through the checks in `channels`."""

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



# Exceptions that only the checks in channels.py raise.
CHANNEL_CHECK_ERRORS = {"DimensionMismatch", "NegativeEntry", "SumNotOne", "BudgetExceeded"}


def rule_breaks(source: str, filename: str) -> list[str]:
    """Lines that reject input outside the channels checks: any raise of ValueError,
    any click.UsageError, or a channels-only exception raised from another module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("UsageError"):
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name == "ValueError" or (name in CHANNEL_CHECK_ERRORS and filename != "channels.py"):
                found.append((node.lineno, f"raise {name}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(found)]


def test_rule_breaks_are_found():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise click.UsageError('x')\n"
        "    raise SumNotOne\n"
        "    raise InvalidDistribution('x')\n"
    )
    assert rule_breaks(source, "regions.py") == [
        "regions.py:3: raise ValueError",
        "regions.py:4: click.UsageError",
        "regions.py:5: raise SumNotOne",
    ]
    assert rule_breaks("raise BudgetExceeded('x')\n", "channels.py") == []


def test_every_rejection_goes_through_the_channels_checks():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += rule_breaks(path.read_text(), path.name)
    assert found == [], f"input rejected outside the channels checks: {found}"
