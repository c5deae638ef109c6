"""The CLI reaches the partition core only through its public names, and
the guard rules know nothing of the CLI's sections.

The rows of the shifts section are built by shifts._orbit_classes; a CLI
that imported a private helper of parorb.partitions could grow its own copy
of the shift rule again.  cli._SECTIONS is the one map from a section to the
rules that bound it; a rule in parorb.oracles that named a section could
grow a second one.
"""

import ast
from pathlib import Path

from parorb.cli import ALL_OUTPUTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parorb"


def imported_names(path, module):
    """(line, name) of each name path imports from the sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == module)
            or (node.level == 0 and node.module == "parorb." + module)
        ):
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_cli_imports_no_private_name_from_partitions():
    names = imported_names(PACKAGE / "cli.py", "partitions")
    assert names, "cli.py no longer imports from parorb.partitions"
    assert [(line, name) for line, name in names if name.startswith("_")] == []


def test_oracles_reads_no_dominance_count_from_shifts():
    # the pairing reads each partition's dominance vector itself; from the
    # shifts layer it takes only the dimension identity's two sides
    names = imported_names(PACKAGE / "oracles.py", "shifts")
    assert sorted(name for _, name in names) == [
        "fixed_component_dimension", "total_codimension"
    ]


def test_oracles_names_no_cli_section():
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ALL_OUTPUTS
    ]
    assert named == []
