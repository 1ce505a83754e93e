"""Tests of the package's public surface."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["quadmap", "noise", "engine", "kernel", "diagnostics", "config", "cli"]
# public names that nothing in the package or the benchmark calls, kept on
# purpose, each with its reason
UNCALLED_KEEP = {
    "one_step_row_mass": "acceptance criterion 3 checks the exact one-step mass through it",
    "one_step_density": "the pointwise kernel that regeneration (split-chain) tours will call",
    "invariant_interval": "the interval I on which certified uniform ergodicity will be proved",
    "check_transversality": "goes when proved periodic orbits replace the float orbit checks",
    "lyapunov_deterministic": "goes when the random maps' Lyapunov exponent replaces it",
}

# public methods and properties that nothing in the package or the benchmark
# reads as an attribute, kept on purpose, each with its reason
METHOD_KEEP = {
    "NoiseModel.sample": "the benchmark's tracer wraps it by name, a string in bench/spans.py",
    "KernelOperator.row": "the benchmark's tracer wraps it by name, a string in bench/spans.py",
}

# defaulted parameters that no call in the package or the benchmark sets,
# kept on purpose, each with its reason
UNSET_DEFAULT_KEEP = {
    "NoiseModel.sample(size)": "the benchmark's tracer wraps sample and reads size",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # a stale entry makes `from randquad.<module> import *` raise
    mod = importlib.import_module(f"randquad.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_traced_methods_stay_on_their_classes():
    # the benchmark's tracer wraps these two methods by name (vars(cls)[name])
    from randquad.kernel import KernelOperator
    from randquad.noise import NoiseModel

    assert "row" in vars(KernelOperator)
    assert "sample" in vars(NoiseModel)


def _sources() -> list[Path]:
    return [*(ROOT / "src" / "randquad").glob("*.py"), *(ROOT / "bench").glob("*.py")]


def _identifiers_outside_own_definition() -> set[str]:
    """Names and attribute names anywhere in src/randquad or bench/, leaving
    out those inside the top-level function or class of the same name."""
    used = set()
    for path in _sources():
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}
    return used


def _public_names() -> list[tuple[str, str]]:
    return [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"randquad.{module}").__all__
    ]


def test_every_name_in_all_is_used():
    # a public name that only tests reach is dead code; keep it only on purpose
    used = _identifiers_outside_own_definition()
    unused = [
        f"{module}.{name}"
        for module, name in _public_names()
        if name not in used and name not in UNCALLED_KEEP
    ]
    assert unused == []


def _attribute_names() -> set[str]:
    """Attribute names anywhere in src/randquad or bench/, leaving out those
    inside a function of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in _sources():
        visit(ast.parse(path.read_text()), frozenset())
    return used


def _public_methods() -> list[str]:
    """Class.name of every public method and property of a class in src/randquad."""
    return [
        f"{cls.name}.{f.name}"
        for path in sorted((ROOT / "src" / "randquad").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    ]


def test_every_public_method_is_used():
    # a method or property that only tests reach is dead code too; dataclass
    # fields are left out
    used = _attribute_names()
    unused = [
        name for name in _public_methods()
        if name.split(".")[1] not in used and name not in METHOD_KEEP
    ]
    assert _public_methods() and unused == []


def _private_definitions() -> list[tuple[str, str]]:
    """(module, name) of every top-level private function and class in src/randquad."""
    return [
        (path.stem, stmt.name)
        for path in sorted((ROOT / "src" / "randquad").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    ]


def test_every_private_definition_is_used():
    # a private function or class that only tests reach is dead code too
    used = _identifiers_outside_own_definition()
    unused = [f"{module}.{name}" for module, name in _private_definitions() if name not in used]
    assert _private_definitions() and unused == []


def test_every_keep_entry_is_needed():
    # an entry goes once its name leaves every __all__ or its class, or gains a caller
    public = {name for _, name in _public_names()}
    used = _identifiers_outside_own_definition()
    stale = [name for name in UNCALLED_KEEP if name not in public or name in used]
    attributes = _attribute_names()
    stale += [
        name for name in METHOD_KEEP
        if name not in _public_methods() or name.split(".")[1] in attributes
    ]
    assert stale == []


def _defaulted_parameters():
    """(name it is called by, label, parameter, call position or None) of
    every parameter with a default, in every function defined in
    src/randquad; a method's position leaves out self or cls, and __init__
    is called by its class's name."""
    found = []
    for path in sorted((ROOT / "src" / "randquad").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(f): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            cls = owner.get(id(f))
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            shift = 1 if cls and not static else 0
            qualified = f"{cls}.{f.name}" if cls else f.name
            name = cls if f.name == "__init__" else f.name
            params = f.args.posonlyargs + f.args.args
            first = len(params) - len(f.args.defaults)
            for i, p in enumerate(params[first:], first):
                found.append((name, f"{qualified}({p.arg})", p.arg, i - shift))
            for p, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    found.append((name, f"{qualified}({p.arg})", p.arg, None))
    return found


def _return_lengths() -> dict[str, int | None]:
    """Name -> the length of the fixed-length tuple[...] that every function
    of that name in src/randquad or bench/ declares it returns; None where
    one declares no such length or two disagree."""
    lengths = {}
    for path in _sources():
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                ret, length = f.returns, None
                if isinstance(ret, ast.Subscript) and getattr(ret.value, "id", None) == "tuple":
                    items = ret.slice.elts if isinstance(ret.slice, ast.Tuple) else [ret.slice]
                    if not any(getattr(item, "value", None) is Ellipsis for item in items):
                        length = len(items)
                lengths[f.name] = length if lengths.get(f.name, length) == length else None
    return lengths


def _star_length(arg: ast.Starred, lengths: dict) -> int:
    """Positions a *arg fills: the length of a literal tuple or list, or the
    declared length of a called function's fixed-length tuple; none when the
    code does not show it."""
    value = arg.value
    if isinstance(value, (ast.Tuple, ast.List)):
        if not any(isinstance(e, ast.Starred) for e in value.elts):
            return len(value.elts)
    elif isinstance(value, ast.Call):
        name = getattr(value.func, "id", None) or getattr(value.func, "attr", None)
        return lengths.get(name) or 0
    return 0


def _sets(call: ast.Call, param: str, position, lengths: dict) -> bool:
    """Whether the call sets the parameter by keyword or **, or by position,
    each *arg filling the positions _star_length counts."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    filled = sum(
        _star_length(a, lengths) if isinstance(a, ast.Starred) else 1 for a in call.args
    )
    return position is not None and filled > position


def _unset_defaults() -> set[str]:
    """Defaulted parameters that no call in src/randquad or bench/ sets,
    leaving out the functions in UNCALLED_KEEP."""
    calls = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    lengths = _return_lengths()
    return {
        label
        for name, label, param, position in _defaulted_parameters()
        if name not in UNCALLED_KEEP
        and not any(_sets(call, param, position, lengths) for call in calls.get(name, []))
    }


@pytest.mark.parametrize(
    "call, filled",
    [
        ("f(a, b)", 2),
        ("f(*(a, b), c)", 3),
        ("f(*[a], c)", 2),
        ("f(*(a, *b), c)", 1),
        ("f(*model.ac_bounds(), lo, hi)", 4),
        ("f(*pair(), c)", 1),
        ("f(*keys[0], i)", 1),
        ("f(*z)", 0),
    ],
    ids=["plain", "tuple", "list", "tuple-with-star", "declared-length", "no-declared-length",
         "subscript", "name"],
)
def test_starred_argument_fills_only_the_positions_it_shows(call, filled):
    # ac_bounds declares tuple[float, float]; pair() declares no length
    node = ast.parse(call, mode="eval").body
    lengths = {"ac_bounds": 2, "pair": None}
    assert [_sets(node, "p", k, lengths) for k in range(6)] == [k < filled for k in range(6)]


def test_return_lengths_read_fixed_tuple_annotations():
    lengths = _return_lengths()
    assert lengths["ac_bounds"] == lengths["support_bounds"] == 2
    assert lengths["substream"] is None


def test_every_default_is_set():
    # a default that no caller overrides is a fixed value behind a knob
    assert _unset_defaults() - set(UNSET_DEFAULT_KEEP) == set()


def test_every_unset_default_keep_entry_is_needed():
    # an entry goes once its parameter loses its default or gains a caller
    assert set(UNSET_DEFAULT_KEEP) - _unset_defaults() == set()
