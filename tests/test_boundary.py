"""The F2/dense boundary: one module per decision.

The packed tableau layout (rows x | z << n and a sign mask) and the F2
kernel behind it are private to `symplectic`; the batching of stabilizer
states into dense conversions is private to `statevec`.  The test reads
the package's source with `ast`, so a module that reaches past either
boundary fails it without running anything.
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
