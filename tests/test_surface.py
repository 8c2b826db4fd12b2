"""The package's public surface is what its commands reach.

Two kinds of public name may stay without a caller in src/: the functions
the benchmark harness (perfbench/) traces by name and reads arguments of by
position, and results of the paper that no report checks yet.
"""

import ast
import importlib.util
import inspect
import pathlib
import re
import types

import cubenoise.cli  # imports every module of the package

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cubenoise"
MODULES = ("cube", "inequalities", "codes", "matroids", "corpus", "cli")
# the console entry point, and results of the paper that no report checks yet
UNREFERENCED = {"cli.main", "codes.alpha_reversal_holds", "codes.sberlo_comparison_rows",
                "codes.dual_weight_bound"}


def harness_arguments() -> dict[str, dict[int, str]]:
    """Every `module.function` that perfbench/run.py's layer checks index
    (`s["..."]`, `c["..."]`) or perfbench/tracing.py's WORK and KEYED tables
    name, with the parameter names tracing.py reads by position."""
    names = {n: {} for n in re.findall(r'\b[sc]\["(\w+\.\w+)"\]', (ROOT / "perfbench" / "run.py").read_text())}
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in (*tracing.WORK, *tracing.KEYED):
        names.setdefault(name, {})
    # `"name": lambda a, k: ... _arg(a, k, i, "param")` in WORK, and
    # `if name == "name": ... _arg(args, kwargs, i, "param")` in Tracer._key
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    blocks = re.split(r'(?:"|name == ")(\w+\.\w+)"(?=:)', source)
    for name, body in zip(blocks[1::2], blocks[2::2]):
        for position, param in re.findall(r'_arg\(\w+, \w+, (\d+), "(\w+)"\)', body.split("\n\n")[0]):
            names[name][int(position)] = param
    return names


def test_harness_names_are_plain_functions_with_their_parameters():
    names = harness_arguments()
    assert "cube.conditional_expectation" in names and "inequalities.subset_weights" in names
    for name, params in names.items():
        module, attr = name.split(".")
        obj = getattr(getattr(cubenoise, module), attr, None)
        assert isinstance(obj, types.FunctionType), name
        assert obj.__module__ == f"cubenoise.{module}", name
        listed = list(inspect.signature(obj).parameters)
        for position, param in params.items():
            assert listed[position] == param, (name, position, param)


def references() -> set[tuple[str, str, str]]:
    """(module, name, referrer) for every module-level name of the package
    that a top-level statement of src/ refers to, imports and `__all__`
    left out; referrer is the module and name of the referring definition."""
    out = set()
    for path in SRC.glob("*.py"):
        here = path.stem
        tree = ast.parse(path.read_text())
        aliases, modules = {}, {}  # local name -> (module, name); local name -> module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        aliases[a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[a.asname or a.name] = a.name
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
                continue
            referrer = f"{here}.{getattr(node, 'name', '')}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    module, name = aliases.get(sub.id, (here, sub.id))
                    out.add((module, name, referrer))
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
                    out.add((modules[sub.value.id], sub.attr, referrer))
    return out


def test_every_public_name_is_referenced_from_another_definition():
    reached = {f"{m}.{n}" for m, n, referrer in references() if referrer != f"{m}.{n}"}
    kept = set(harness_arguments()) | UNREFERENCED
    unreached = []
    for module in MODULES:
        mod = getattr(cubenoise, module)
        for name, obj in vars(mod).items():
            public = not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            if public and obj.__module__ == mod.__name__ and f"{module}.{name}" not in reached | kept:
                unreached.append(f"{module}.{name}")
    assert unreached == []
    assert all(hasattr(getattr(cubenoise, n.split(".")[0]), n.split(".")[1]) for n in UNREFERENCED)
