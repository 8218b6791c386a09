"""Source hygiene checks on the package modules."""

import ast
import importlib.util
from pathlib import Path

import skewcodes
from skewcodes.modact import _OverModule
from skewcodes.skewpoly import CoeffRows


def test_every_imported_name_is_used():
    """Each module other than the package's __init__ (which re-exports)
    uses every name it imports, read off its syntax tree."""
    offenders = []
    for path in sorted(Path(skewcodes.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line}: {name}"
                      for name, line in imported.items() if name not in used]
    assert not offenders, offenders


def test_benchmark_harness_names_resolve():
    """Every attribute the perfbench tracer patches, and every `sc.<name>`
    the perfbench workloads read, is still defined in the package."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, path) for _, module, path
               in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS]
    targets.append(("skewcodes.skewmap", "NOperatorTable.matrix"))
    # ring-series set-up warms ctx.xinv_maps(), a call the `sc.` scan misses
    targets.append(("skewcodes.skewmap", "SkewDerivation.xinv_maps"))
    missing = []
    for module, path in targets:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{path}")
    tree = ast.parse((bench / "workloads.py").read_text())
    missing += [f"skewcodes.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "sc"
                and not hasattr(skewcodes, node.attr)]
    assert not missing, missing


def test_every_private_definition_is_referenced():
    """Each private (single-underscore, not dunder) module-level function or
    class, and each private method, is referenced by name or attribute
    somewhere in the package; a leftover helper fails here."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(skewcodes.__file__).parent.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    offenders = []
    for name, tree in trees.items():
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        offenders += [f"{name}:{node.lineno}: {node.name}"
                      for scope in scopes for node in scope.body
                      if isinstance(node, defs) and node.name.startswith("_")
                      and not node.name.endswith("__") and node.name not in referenced]
    assert not offenders, offenders


# sigma', delta', m_delta' and the right-hand table belong to ctx.opposite;
# m_delta' is also a field of the LaurentAvailability report, read as `avail`
MIRRORED = {"sigma_inv", "delta_prime", "m_delta_prime", "ntable_right"}


def test_right_hand_side_is_read_through_the_opposite():
    """No module reads a mirrored right-hand member: the opposite context
    A^op[X; sigma^{-1}, -delta sigma^{-1}] is the one right-hand path."""
    offenders = []
    for path in sorted(Path(skewcodes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        report = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  and cls.name == "LaurentAvailability" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or node.attr not in MIRRORED \
                    or id(node) in report:
                continue
            recv = node.value
            recv = recv.attr if isinstance(recv, ast.Attribute) else getattr(recv, "id", None)
            if (node.attr, recv) != ("m_delta_prime", "avail"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not offenders, offenders


# perfbench reaches these by name (ROADMAP item 1 moves its call sites)
RENAME_WRAPPERS_KEPT = {"modact.py: vecseries_times_ring",
                        "modact.py: veclaurent_times_ring"}


def _rename_wrappers(tree: ast.Module) -> list[str]:
    """Module-level, undecorated public functions whose body after the
    docstring is one `return g(<their own parameters, in order>)`."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.decorator_list \
                or node.name.startswith("_"):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return) \
                or not isinstance(body[0].value, ast.Call):
            continue
        call, params = body[0].value, [a.arg for a in node.args.args]
        if not call.keywords and [getattr(a, "id", None) for a in call.args] == params:
            found.append(node.name)
    return found


def test_no_function_only_renames_another():
    """Each operation has one public name: a function that only passes its
    own parameters on to another is a second name for it."""
    found = {f"{path.name}: {name}"
             for path in sorted(Path(skewcodes.__file__).parent.glob("*.py"))
             for name in _rename_wrappers(ast.parse(path.read_text()))}
    assert found == RENAME_WRAPPERS_KEPT, found ^ RENAME_WRAPPERS_KEPT


WINDOW_METHODS = ("coeff", "is_zero", "shift", "__add__", "__neg__", "agrees_with")


def test_window_algebra_is_written_once():
    """Polynomials, series and Laurent series differ only in their normal
    form (a constructor and `_new`): every coefficient class, mixins
    included, resolves the window methods to skewpoly.CoeffRows."""
    offenders = []
    for name in ("skewpoly", "skewseries", "skewlaurent", "modact"):
        module = importlib.import_module(f"skewcodes.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, CoeffRows):
                offenders += [f"{name}.{cls.__name__}.{m}" for m in WINDOW_METHODS
                              if getattr(cls, m) is not getattr(CoeffRows, m)]
    assert not offenders, offenders


def test_module_windows_have_one_constructor():
    """A module window is its ring-layer class's window over (spec, ctx):
    no subclass of modact._OverModule defines a constructor of its own."""
    module = importlib.import_module("skewcodes.modact")
    offenders = [cls.__name__ for cls in vars(module).values()
                 if isinstance(cls, type) and issubclass(cls, _OverModule)
                 and cls is not _OverModule and "__init__" in vars(cls)]
    assert not offenders, offenders
