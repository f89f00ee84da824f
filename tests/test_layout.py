"""The package holds no code that only the tests use, and one way to reuse
a factorization.

Every module-level function or class and every method in src/cpk must be
referenced somewhere in src/cpk outside its own definition. Exempt are
dunder methods, the console entry point cpk.cli.main, and the functions the
benchmark tracer wraps (bench/tracer.py TARGETS), which are reached from
outside the package by design. Factorizations are reused only through
cpk.abelian.factor: it alone calls smith_normal_form, no other function
takes an SnfResult, and nothing else keeps one: no attribute is assigned a
value that calls factor or reads a factorization's U, V, Uinv, Vinv, S or
diagonal. A kernel basis comes only from
cpk.abelian.hom_kernel_lattice: it alone calls kernel_basis. Residuals are
bounded only through cpk.fock._worst: it alone calls _block_bounds. In
cpk.abelian only the int64 product _word_product uses numpy, so the Smith
elimination has one implementation, in Python ints. Importing the command
line loads no scipy: only fock-check needs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpk"


def tracer_targets() -> set:
    """(module, attribute path) of every TARGETS entry, read from the tracer
    source without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {(module, path) for module, path, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py binds no TARGETS")


def definitions(module: str, tree: ast.Module):
    """(module, qualified name, bare name, first line, last line) of every
    module-level function or class and every method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield module, node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    qualname = f"{node.name}.{item.name}"
                    yield module, qualname, item.name, item.lineno, item.end_lineno


def references(module: str, tree: ast.Module):
    """(module, name, line) of every name and attribute in the code; an
    import alone is not a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield module, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield module, node.attr, node.lineno


def test_every_definition_is_used_inside_the_package():
    exempt = tracer_targets() | {("cpk.cli", "main")}
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "cpk" if path.stem == "__init__" else f"cpk.{path.stem}"
        tree = ast.parse(path.read_text())
        defs.extend(definitions(module, tree))
        refs.extend(references(module, tree))
    unused = []
    for module, qualname, name, first, last in defs:
        if name.startswith("__") and name.endswith("__") or (module, qualname) in exempt:
            continue
        if not any(
            ref == name and not (ref_module == module and first <= line <= last)
            for ref_module, ref, line in refs
        ):
            unused.append(f"{module}.{qualname}")
    assert not unused, f"defined in src/cpk but used only outside it: {unused}"


def functions():
    """(module stem, function node) of every function in src/cpk, nested
    ones and methods included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def callers(name: str) -> set:
    """module.function of every function in src/cpk whose body calls name."""
    found = set()
    for module, node in functions():
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(f"{module}.{node.name}")
    return found


def test_factorizations_are_reused_only_through_factor():
    takes = set()
    for module, node in functions():
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and "SnfResult" in ast.unparse(arg.annotation):
                takes.add(f"{module}.{node.name}({arg.arg})")
    calls = callers("smith_normal_form")
    assert not takes, f"functions other than factor take an SnfResult: {sorted(takes)}"
    assert calls == {"abelian.factor"}, f"smith_normal_form is called from {sorted(calls)}"


SNF_FIELDS = {"U", "V", "Uinv", "Vinv", "S", "diagonal"}


def test_nothing_but_factor_keeps_a_factorization():
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if node.value is None or not any(
                isinstance(part, ast.Attribute) for t in targets for part in ast.walk(t)
            ):
                continue
            for part in ast.walk(node.value):
                called = isinstance(part, ast.Call) and (
                    getattr(part.func, "id", None) == "factor"
                    or getattr(part.func, "attr", None) == "factor"
                )
                if called or isinstance(part, ast.Attribute) and part.attr in SNF_FIELDS:
                    kept.append(f"{path.stem}:{node.lineno}")
                    break
    assert not kept, f"attributes keep a factorization at {kept}"


def test_kernel_bases_come_only_from_hom_kernel_lattice():
    calls = callers("kernel_basis")
    assert calls == {"abelian.hom_kernel_lattice"}, f"kernel_basis is called from {sorted(calls)}"


def test_residuals_are_bounded_only_through_worst():
    calls = callers("_block_bounds")
    assert calls == {"fock._worst"}, f"_block_bounds is called from {sorted(calls)}"


def uses_numpy(node) -> bool:
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and part.id in ("np", "numpy"):
            return True
        if isinstance(part, ast.Import) and any(
            alias.name.split(".")[0] == "numpy" for alias in part.names
        ):
            return True
        if isinstance(part, ast.ImportFrom) and (part.module or "").split(".")[0] == "numpy":
            return True
    return False


def test_only_the_word_product_uses_numpy_in_abelian():
    users = {node.name for module, node in functions() if module == "abelian" and uses_numpy(node)}
    assert users == {"_word_product"}, f"numpy is used in cpk.abelian by {sorted(users)}"
    tree = ast.parse((PACKAGE / "abelian.py").read_text())
    imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and uses_numpy(node)
    ]
    assert imports == ["import numpy as np"], imports


def test_importing_the_command_line_loads_no_scipy():
    # cpk.fock, and scipy with it, is imported by cmd_fock_check when it runs
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = ("import sys, cpk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]", result.stdout
