"""Package structure: module boundaries that the source must keep."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from rsflow.cli import build_parser
from rsflow.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rsflow"


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}"
                              f"{node.module or ''} import {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders, offenders


def test_imports_are_at_module_level():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno} in {fn.name}()"
                              for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not offenders, offenders


def test_only_fields_makes_a_thread_pool():
    # every map_slabs job, whichever module submits it, runs on fields' one pool
    makers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "ThreadPoolExecutor":
                    makers.append(path.name)
    assert makers == ["fields.py"], makers


def test_only_check_finite_scans_for_nan_and_inf():
    # one NaN/Inf scan, one message format; math.isfinite on a scalar is fine
    scans = []

    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Attribute, ast.Name)):
                name = getattr(child, "attr", getattr(child, "id", None))
                owner = getattr(getattr(child, "value", None), "id", None)
                if name == "isfinite" and owner != "math":
                    scans.append(f"{path.name}:{fn}")
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else fn)
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None)
    assert scans == ["fields.py:check_finite"], scans


def test_import_starts_no_thread():
    # the stencil's thread pool is made on first use, not at import
    code = ("import threading, rsflow, rsflow.cli\n"
            "assert threading.active_count() == 1, threading.enumerate()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_readme_lists_the_config_keys():
    text = (ROOT / "README.md").read_text()
    keys = re.search(r"keys are the fields of\s+`SolverConfig`:(.*?)\.\s",
                     text, re.S).group(1)
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in fields(SolverConfig)]


def test_readme_cli_block_names_every_subcommand():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\s+```sh\n(.*?)```", text, re.S).group(1)
    named = [line.split()[1] for line in block.splitlines() if line.strip()]
    usage = build_parser().format_usage()
    commands = re.search(r"\{([\w,-]+)\}", usage).group(1).split(",")
    assert sorted(named) == sorted(commands)
