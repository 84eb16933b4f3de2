"""The benchmark's traced pass wraps blognet functions by name
(``perfbench/worker.py``) and sums their spans by name (``perfbench/run.py``),
so a renamed or inlined function leaves a per-layer metric reading zero
instead of failing. Both files are read as source, not imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assignments(path: Path) -> dict[str, ast.expr]:
    """Name -> value of each top-level assignment in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


WORKER = assignments(PERFBENCH / "worker.py")
RUN = assignments(PERFBENCH / "run.py")
TRACED = ast.literal_eval(WORKER["_TRACED"])    # module -> function names, or None: all
METHODS = ast.literal_eval(WORKER["_METHODS"])  # module -> "Class.method" names


def flat(value) -> list[str]:
    return [value] if isinstance(value, str) else [n for v in value for n in flat(v)]


# each span name a count or a metric is taken from
SPAN_NAMES = sorted({
    *(ast.literal_eval(key) for key in WORKER["_COUNTS"].keys),
    *flat(ast.literal_eval(RUN["_SELF_TIME"]).values()),
    *ast.literal_eval(RUN["_CALLS"]).values(),
    *ast.literal_eval(RUN["_COUNTED"]).values(),
    *ast.literal_eval(RUN["_LOADS"]),
})


def public_functions(module) -> list[str]:
    """What the worker wraps in a module traced whole."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def traced_spans() -> set[str]:
    """The span names a traced run records, from the functions and methods
    the worker wraps that exist."""
    spans = set()
    for mod_name, names in TRACED.items():
        module = importlib.import_module(f"blognet.{mod_name}")
        functions = public_functions(module)
        spans.update(f"{mod_name}.{n}" for n in (functions if names is None else names)
                     if n in functions)
        for qualified in METHODS.get(mod_name, ()):
            cls_name, attr = qualified.split(".")
            if attr in vars(getattr(module, cls_name, object)):
                spans.add(f"{mod_name}.{attr}")
    return spans


@pytest.mark.parametrize("name", [f"{mod}.{n}" for mod, names in TRACED.items()
                                  for n in names or ()])
def test_each_function_the_worker_wraps_by_name_is_public(name):
    mod_name, function = name.split(".")
    assert function in public_functions(importlib.import_module(f"blognet.{mod_name}"))


@pytest.mark.parametrize("name", [f"{mod}.{q}" for mod, names in METHODS.items() for q in names])
def test_each_method_the_worker_wraps_exists(name):
    mod_name, cls_name, attr = name.split(".")
    cls = getattr(importlib.import_module(f"blognet.{mod_name}"), cls_name)
    assert inspect.isclass(cls) and attr in vars(cls)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_each_span_a_metric_reads_is_traced(name):
    assert name in traced_spans()
