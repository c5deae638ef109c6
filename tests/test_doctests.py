"""Run every docstring example shipped in the package, and README's."""

import ast
import doctest
import re
import types
from pathlib import Path

import pytest

import parorb
import parorb.arith
import parorb.chenruan
import parorb.cli
import parorb.eigenflag
import parorb.fixed_loci
import parorb.model
import parorb.oracles
import parorb.partitions
import parorb.shifts
import parorb.torsion

MODULES = [
    parorb.arith,
    parorb.chenruan,
    parorb.cli,
    parorb.eigenflag,
    parorb.fixed_loci,
    parorb.model,
    parorb.oracles,
    parorb.partitions,
    parorb.shifts,
    parorb.torsion,
]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_docstring_examples(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_examples_exist_somewhere():
    attempted = sum(doctest.testmod(m).attempted for m in MODULES)
    assert attempted >= 10


def test_readme_python_blocks_run():
    # the blocks run in order in one namespace; an expression statement
    # whose line ends in "# value" must evaluate to something of that repr
    namespace: dict = {}
    checked = []
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            if isinstance(stmt, ast.Expr) and comment:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert repr(value) == comment
                checked.append(comment)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["90", "Fraction(56, 3)"]


def test_all_lists_the_public_names():
    public = {
        name
        for name, value in vars(parorb).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(parorb.__all__) == len(set(parorb.__all__))
    assert set(parorb.__all__) == public
