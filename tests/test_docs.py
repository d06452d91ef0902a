"""The public surface, the README examples and the counts the docs quote stay true."""

import argparse
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import pftopt
from model_oracles import criterion_8_tours
from pftopt import Status, branch_bound, cli, models

README = pathlib.Path(__file__).parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
MODULES = ["pftopt"] + [f"pftopt.{m.name}" for m in pkgutil.iter_modules(pftopt.__path__)]


def _run(block):
    """(what the block prints, its namespace)."""
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    return out.getvalue(), namespace


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_readme_block_prints_what_its_comments_say(block):
    """Each `print(...)  # text` line must write exactly `text`."""
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    printed, _ = _run(block)
    assert printed.splitlines() == expected


def test_readme_library_example_solves_to_9():
    [block] = [block for block in PYTHON_BLOCKS if "build_shortest_path" in block]
    printed, namespace = _run(block)
    assert namespace["out"].status is Status.OPTIMAL
    assert namespace["out"].objective_value == 9.0
    assert printed == "OPTIMAL 9.0\n"


def test_readme_cli_block_names_every_subcommand():
    [block] = re.findall(r"^```sh\n(pftopt .*?)^```", README.read_text(), re.M | re.S)
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("pftopt ")]
    [subparsers] = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(listed) == sorted(subparsers.choices)


def test_the_quoted_tour_counts_hold():
    """The 20 criterion-8 tour solves (each tour plain and with its arc
    forced) take the nodes and pivots that README.md and the branch_bound
    docstring quote; a change to the search updates all three together."""
    nodes = pivots = 0
    for d, (i, j) in criterion_8_tours():
        ids = tuple(range(1, len(d) + 1))
        mip = models.build_tour(models.DistanceMatrix(from_ids=ids, to_ids=ids, d=d))
        for out in (branch_bound.solve_mip(mip),
                    branch_bound.solve_mip(models.force_arc(mip, i + 1, j + 1))):
            assert out.status is Status.OPTIMAL
            nodes, pivots = nodes + out.nodes_explored, pivots + out.iterations
    assert (nodes, pivots) == (101, 882)
    for text in (README.read_text(), branch_bound.__doc__):
        assert "take 101 nodes and 882 pivots" in " ".join(text.split())


def test_runtime_imports_are_numpy_only():
    """Importing every pftopt module loads no third-party module but numpy."""
    src = str(pathlib.Path(pftopt.__file__).parents[1])
    script = f"""
import importlib, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
for name in {MODULES!r}:
    importlib.import_module(name)
tops = {{name.split(".")[0] for name in set(sys.modules) - before}}
print(sorted(tops - set(sys.stdlib_module_names)))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout == "['numpy', 'pftopt']\n"
