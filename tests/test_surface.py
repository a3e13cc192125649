"""Every public name has a user (library code, the benchmark tracer, or the README) and
loads from its module on first access, the package holds no dead imports or private names,
and every rejection of caller input goes through the checks in `channels`."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# The public names, pinned: the package imports each from its module on first use.
PUBLIC_NAMES = [
    "BinningCodebook", "BudgetExceeded", "CodeParams", "DegradednessReport", "DimensionMismatch",
    "DiscreteChannel", "EquivocationReport", "GaussianParams", "InvalidDistribution",
    "NegativeEntry", "Pmf", "RatePoint", "RegionFrontier", "SumNotOne", "SuperpositionCodebook",
    "TrialResult", "build_double_binning", "build_superposition", "capacity_fn", "cascade",
    "check_stochastic_degraded", "decode_rx1", "decode_rx2", "degraded_rate_pair",
    "degraded_rate_terms", "degraded_region_inner", "encode_double_binning",
    "encode_superposition", "exact_equivocation", "gaussian_region_point", "general_inner_bound",
    "general_rate_corners", "general_rate_terms", "mutual_information", "run_error_experiment",
    "simplex_grid", "transmit", "upper_right_hull", "wiretap_secrecy_capacity",
]

# In a fresh interpreter, so that every name goes through the package's
# __getattr__: prints the modules that are not attributes of the bare
# package, the names that dir() misses or that were loaded before their
# first access, then each name whose `from` import, getattr and defining
# module disagree.
LAZY_ACCESS = """
import sys
import bcc_secrecy
modules = ("limits", "channels", "coding", "information", "regions")
print([m for m in modules if getattr(bcc_secrecy, m) is not sys.modules[f"bcc_secrecy.{m}"]])
names = bcc_secrecy.__all__
print(sorted(set(names) - set(dir(bcc_secrecy))), sorted(set(names) & set(vars(bcc_secrecy))))
found = {}
exec(f"from bcc_secrecy import {', '.join(names)}", found)
def defined(name):
    module = sys.modules[found[name].__module__]
    return (module.__name__.startswith("bcc_secrecy.")
            and vars(module)[name] is found[name] is getattr(bcc_secrecy, name))
print([name for name in names if not defined(name)])
"""


def test_package_surface():
    assert bcc_secrecy.__all__ == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        bcc_secrecy.no_such_name
    with pytest.raises(ImportError):
        exec("from bcc_secrecy import no_such_name", {})
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", LAZY_ACCESS], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[] []\n[]\n"


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


# The tables that name, as strings, what a module imports on first use:
# the package's exports and the names cli.py binds when a command runs.
LAZY_TABLES = {"__init__.py": "_EXPORTS", "cli.py": "_LIBRARY"}


def lazy_table(tree: ast.Module, table: str) -> dict[str, tuple[str, ...]]:
    """The `{module: (name, ...)}` literal that `tree` assigns to `table` at top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [table]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {table} table")


def top_level_names(tree: ast.Module, imports: bool = True) -> list[str]:
    """Names that a module's top-level defs, classes, assignments and, if `imports`,
    imports bind."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return bound


def lazy_gaps(modules: dict[str, ast.Module]) -> list[str]:
    """Entries of the LAZY_TABLES that their module does not bind, and names in
    cli.py's table that cli.py never reads: the lazy counterparts of dead imports."""
    gaps = []
    for filename, table in LAZY_TABLES.items():
        read = names_read(modules[filename])
        for module, names in lazy_table(modules[filename], table).items():
            defined = set(top_level_names(modules[f"{module}.py"]))
            gaps += [f"{filename}: {module}.{name} is not defined"
                     for name in names if name not in defined]
            if filename != "__init__.py":
                gaps += [f"{filename}: import {name}" for name in names if name not in read]
    return gaps


def private_names(tree: ast.Module) -> list[str]:
    """Module-level `_x` names (dunders aside) that a def, class or assignment binds."""
    bound = top_level_names(tree, imports=False)
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
    lazy = {
        "__init__.py": ast.parse("_EXPORTS = {'regions': ('f', 'gone')}"),
        "cli.py": ast.parse("_LIBRARY = {'regions': ('f', 'g', 'h')}\ndef run(): return f(h)"),
        "regions.py": ast.parse("from .x import g\nh = 1\ndef f(): pass"),
    }
    assert lazy_gaps(lazy) == ["__init__.py: regions.gone is not defined", "cli.py: import g"]
    lazy["cli.py"] = ast.parse("_LIBRARY = {'regions': ('f', 'k')}\ndef run(): return f(k)")
    assert lazy_gaps(lazy) == [
        "__init__.py: regions.gone is not defined", "cli.py: regions.k is not defined"
    ]


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
    dead += lazy_gaps(modules)
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
