"""The CLI reaches the partition core only through its public names, and
the guard rules know nothing of the CLI's sections.

The rows of the shifts section are built by shifts._orbit_classes; a CLI
that imported a private helper of parorb.partitions could grow its own copy
of the shift rule again.  cli._SECTIONS is the one map from a section to the
rules that bound it; a rule in parorb.oracles that named a section could
grow a second one.  The brute-force oracles take only the closed-form
count from parorb.partitions, never its enumeration.  Importing the package
loads no dataclasses.  No module memoizes a function with functools'
lru_cache or cache.  No value class writes its own == or hash, or an
__init__ that only stores its parameters, which the base class does.  And
outside arith.py, Fraction() is called on a variable only where an int or
a Fraction is all it can receive.
"""

import ast
import subprocess
import sys
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
    # the oracles count each C(i) from its definition and work out the
    # codimension themselves; from the shifts layer they take only what
    # they check against: the fixed dimension and the shift histogram
    names = imported_names(PACKAGE / "oracles.py", "shifts")
    assert sorted(name for _, name in names) == [
        "fixed_component_dimension", "shift_histogram"
    ]


def test_oracles_takes_only_the_closed_form_count_from_partitions():
    # the brute-force censuses walk permutations of their own; borrowing
    # the fast integer core would make them check it against itself
    names = imported_names(PACKAGE / "oracles.py", "partitions")
    assert [name for _, name in names] == ["count_partitions"]


def test_oracles_names_no_cli_section():
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    named = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ALL_OUTPUTS
    ]
    assert named == []


def test_importing_parorb_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis, tokenize and more, which every
    # CLI run would pay for at startup; FrozenInstanceError is imported only
    # when an assignment is refused
    probe = (
        "import sys, parorb, parorb.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses_at_import_time():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # imports inside a function body run only when it is called
        in_functions = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if id(node) in in_functions:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                (path.name, node.lineno)
                for name in names
                if name.split(".")[0] == "dataclasses"
            ]
    assert found == []


def test_no_module_memoizes_with_functools_caches():
    # a slow inner loop is made fast, not hidden behind a stack of caches
    # that grow with every argument seen; a value kept once per object, as
    # cached_property keeps it, is not such a cache
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = [node.attr]
            else:
                continue
            found += [
                (path.name, node.lineno, name)
                for name in names
                if name in ("lru_cache", "cache")
            ]
    assert found == []


def frozen_classes():
    """(file name, class node) of each subclass of errors._Frozen."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Frozen" for base in node.bases
            ):
                yield path.name, node


def stores_only_its_parameters(init):
    """True when each statement of init (after a docstring) is a call
    f(self, "field", parameter): it only copies its arguments into fields."""
    self, *params = [arg.arg for arg in init.args.args + init.args.kwonlyargs]
    body = init.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    for stmt in body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not (isinstance(call, ast.Call) and len(call.args) == 3):
            return False
        obj, field, value = call.args
        if not (
            isinstance(obj, ast.Name)
            and obj.id == self
            and isinstance(field, ast.Constant)
            and isinstance(value, ast.Name)
            and value.id in params
        ):
            return False
    return True


def test_value_classes_leave_field_only_constructors_to_the_base():
    # _Frozen.__init__ sets the fields by position or keyword.  DegreeShift
    # keeps its own: degree_shift builds one per call, a sweep of 163,530
    # rank-2 shift calls builds as many, and the generic constructor took
    # 1.3 us against 0.46 us a build (2-core x86-64, Python 3.11.7)
    found = [
        "%s:%s" % (name, cls.name)
        for name, cls in frozen_classes()
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "__init__"
        and stores_only_its_parameters(node)
    ]
    assert found == ["shifts.py:DegreeShift"]


def test_value_classes_take_eq_and_hash_from_the_base():
    found = [
        "%s:%s.%s" % (name, cls.name, node.name)
        for name, cls in frozen_classes()
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
    ]
    assert found == []


# Fraction() reads "1e-5000", non-ASCII digits, floats and bools; the one
# rule for numbers from outside is arith.exact_number, through
# parse_rational.  These calls take a variable, and each only ever receives
# an int or a Fraction:
FRACTION_CALLS = {
    # the exact-number rule has read any string and refused floats and bools
    ("chenruan.py", "Fraction(exact_number(value, what))"),
    ("model.py", "Fraction(exact_number(w, 'weights'))"),
    # an int that the exact-number rule passed through
    ("eigenflag.py", "Fraction(x)"),
    # int numerators over int denominators
    ("chenruan.py", "Fraction(key, r)"),
    ("eigenflag.py", "Fraction(x, row[col])"),
    ("shifts.py", "Fraction(sum((i * mult for i, mult in mults.items())), m)"),
    ("shifts.py", "Fraction(shift_base + t, m)"),
}


def test_fraction_calls_outside_arith_take_only_ints_and_fractions():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and (
                    node.keywords
                    or not all(isinstance(arg, ast.Constant) for arg in node.args)
                )
            ):
                found.add((path.name, ast.unparse(node)))
    assert sorted(found - FRACTION_CALLS) == []
    # and the list stays short: a site that is gone leaves it
    assert sorted(FRACTION_CALLS - found) == []
