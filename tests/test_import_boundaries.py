"""The CLI reaches the partition core only through its public names.

The rows of the shifts section are built by shifts._orbit_classes; a CLI
that imported a private helper of parorb.partitions could grow its own copy
of the shift rule again.
"""

import ast
from pathlib import Path

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
