"""The package's module boundaries: one module per decision.

The packed tableau layout (rows x | z << n and a sign mask) and the F2
kernel behind it are private to `symplectic`; the batching of stabilizer
states into dense conversions is private to `statevec`; and no module
reads another module's private (`_name`) names, `symplectic`'s `_f2`
aside.  The test reads the package's source with `ast`, so a module that
reaches past a boundary fails it without running anything.
"""

import ast
import pathlib

import magiclab

PACKAGE = pathlib.Path(magiclab.__file__).parent


def modules():
    """{module name: parsed tree} for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def imports_f2(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.endswith("_f2") or any(alias.name == "_f2" for alias in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name.endswith("._f2") for a in node.names):
            return True
    return False


def attributes(tree):
    """Every attribute name the tree reads or writes, as in `x.rows`."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def names(tree):
    """Every attribute and bare name the tree reads or writes."""
    bare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return attributes(tree) | bare


def private_reads(tree):
    """The other modules' private names that `tree` reads, as "statevec._front".

    A private module imported whole is read by its own name, as "_f2".
    """
    bound = {}  # local name -> the package module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    bound[alias.asname or alias.name] = alias.name
                if alias.name.startswith("_"):
                    reads.add(alias.name if node.module is None else f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            reads.add(f"{bound[node.value.id]}.{node.attr}")
    return reads


def test_the_boundary_test_sees_the_package():
    assert {"_f2", "symplectic", "statevec", "zxcat", "suites", "cli"} <= set(modules())


def test_only_symplectic_reads_the_tableau_layout():
    trees = modules()
    assert [name for name, tree in trees.items() if imports_f2(tree)] == ["symplectic"]
    readers = sorted(name for name, tree in trees.items() if attributes(tree) & {"rows", "signs"})
    assert readers == ["symplectic"]


def test_only_statevec_batches_dense_conversions():
    trees = modules()
    assert [name for name, tree in trees.items() if "BATCH_AMPS" in names(tree)] == ["statevec"]


def test_no_module_reads_another_modules_private_names():
    trees = modules()
    reads = {name: sorted(private_reads(tree)) for name, tree in trees.items()}
    assert {name: names for name, names in reads.items() if names} == {"symplectic": ["_f2"]}


def test_private_reads_sees_each_form_of_reach():
    tree = ast.parse(
        "from . import statevec as sv, _f2\n"
        "from .glue import _spans, merge\n"
        "sv._front(sv.kron, sv.__name__)\n"
    )
    assert private_reads(tree) == {"_f2", "glue._spans", "statevec._front"}
