"""Every public name has a user (library code, the benchmark tracer, or the README), the
package holds no dead imports or private names, and every rejection of caller input goes
through the checks in `channels`."""

import ast
import re
from pathlib import Path

import bcc_secrecy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bcc_secrecy"


def names_read(tree: ast.AST) -> set[str]:
    """Names the code reads: loaded identifiers and attribute names, f-strings included,
    but not docstrings, comments, or the names that defs, classes and assignments bind."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def src_modules() -> dict[str, ast.Module]:
    """The package's parsed modules by file name."""
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def names_used_in_src() -> set[str]:
    """Names read by the package's code, skipping `__init__.py`."""
    used = set()
    for name, tree in src_modules().items():
        if name != "__init__.py":
            used |= names_read(tree)
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


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports (`__future__` features aside) but never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = names_read(tree)
    return [name for name in imported if name not in read]


def private_names(tree: ast.Module) -> list[str]:
    """Module-level `_x` names (dunders aside) that a def, class or assignment binds."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def test_dead_code_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np, os.path\n"
        "from typing import Sequence, Iterator\n"
        "_LIMIT = 3\n"
        "def _used(x: Sequence): return f'{np.pi}'\n"
        "def _dead(): return _used(0)\n"
    )
    assert unused_imports(tree) == ["os", "Iterator"]
    assert private_names(tree) == ["_LIMIT", "_used", "_dead"]
    assert [n for n in private_names(tree) if n not in names_read(tree)] == ["_LIMIT", "_dead"]


def test_no_dead_imports_or_private_names_in_src():
    modules = src_modules()
    read = set().union(*map(names_read, modules.values()))
    dead = [
        f"{name}: import {imported}"
        for name, tree in modules.items()
        if name != "__init__.py"
        for imported in unused_imports(tree)
    ]
    dead += [
        f"{name}: {private}"
        for name, tree in modules.items()
        for private in private_names(tree)
        if private not in read
    ]
    assert dead == [], f"code with no caller: {dead}"



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
