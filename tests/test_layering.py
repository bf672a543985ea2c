"""Module layering: each gatesynth module imports only modules below it in

    {numkit, inputs} -> channels -> {analysis, ansatz, devices, dfe} -> optimkit -> cli

(modules of one rank do not import each other). Every import statement is
read from the source with ast, including imports inside functions, so a
lazy import cannot hide a cycle. Importing the package, CLI included, loads
no scipy module: only the derivative-free searches use scipy. Every
name the package exports has a reader besides the unit tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "gatesynth"
LAYERS = [{"numkit", "inputs"}, {"channels"}, {"analysis", "ansatz", "devices", "dfe"},
          {"optimkit"}, {"cli"}]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def _imported_modules(tree):
    """Names of the gatesynth modules a module's import statements read.
    `from . import name` names a module only when name is one; otherwise it
    reads an attribute of the package itself (such as __version__)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names if alias.name in RANK}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gatesynth."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gatesynth.")}
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_modules_import_only_lower_layers():
    bad = []
    for name, rank in RANK.items():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for dep in sorted(_imported_modules(tree)):
            if RANK.get(dep, len(LAYERS)) >= rank:
                bad.append(f"{name} imports {dep}")
    assert bad == []


def test_a_function_level_import_is_seen():
    tree = ast.parse("def f():\n    from .dfe import dfe_plan\n    from . import ansatz\n")
    assert _imported_modules(tree) == {"dfe", "ansatz"}


def test_importing_gatesynth_loads_no_scipy():
    # scipy would add about 20 MB and its import time to every CLI process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = ("import gatesynth, gatesynth.cli, sys; "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _references(tree):
    """The names a module reads: loaded names, attributes, and string constants
    (the benchmark's tracer finds what it wraps by attribute name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_export_is_read_outside_the_unit_tests():
    # a name only the unit tests read belongs in tests/reference.py
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    root = PACKAGE.parents[1]
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [*root.glob("demos/*.py"), *root.glob("perfbench/*.py"),
                root / "tests" / "test_acceptance.py"]
    read = set().union(*(_references(ast.parse(p.read_text())) for p in readers))
    assert sorted(exported - read) == []


def test_references_count_reads_not_definitions():
    tree = ast.parse('def f():\n    """g is named here"""\n    x = g(h.k)\n    wrap(m, "n")\n')
    assert _references(tree) == {"g is named here", "g", "h", "k", "wrap", "m", "n"}
