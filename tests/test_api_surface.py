"""Every name the package exports, and every dataclass field it declares, has a reader in a command,
criterion, script or benchmark, and every parameter default is overridden by one of them.

References are collected from the syntax tree, so a name in a comment or a docstring is no reader.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "renewal_lab"
INIT = PACKAGE / "__init__.py"
#: exported with no caller outside the tests, in export order
EXEMPT = []
#: "function.parameter" defaults no call outside the tests passes, with the reason each is kept
EXEMPT_DEFAULTS = {
    # test_tangency_warning needs a bracket with the tangency at 1 on a grid point, which the default bracket misses
    "find_fixed_points.l_max": "the tests' bracket for a root the default bracket cannot place on the grid",
}


def _nodes(skip=None):
    """Every syntax node of the modules in src/, scripts/ and perfbench/, but ``skip``."""
    files = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py")) if p != skip]
    return [node for p in files for node in ast.walk(ast.parse(p.read_text()))]


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_export_is_referenced_outside_the_tests():
    tree = ast.parse(INIT.read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for node in _nodes(skip=INIT):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert len(names) > 50
    assert [name for name in names if name not in used] == EXEMPT


def test_every_dataclass_field_is_read_outside_the_tests():
    """A field counts as read when some attribute of that name is loaded: a field sharing its name
    with one read elsewhere passes, so the check finds fields nothing can read, not every idle one.
    Only a field annotated ``Callable`` is read by calling it: ``d.values()`` reads no field ``values``."""
    nodes = _nodes()
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    loads = [node for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    read = {node.attr for node in loads if id(node) not in called}
    read_or_called = {node.attr for node in loads}
    fields = [
        (f"{p.stem}.{node.name}", stmt.target.id, "Callable" in ast.unparse(stmt.annotation))
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert len(fields) > 80
    unread = [f"{owner}.{name}" for owner, name, fn in fields if name not in (read_or_called if fn else read)]
    assert unread == []


def _defaults():
    """(callee name, parameter, position) of every parameter default declared in src/renewal_lab.

    The callee of a method is its name, of ``__init__`` its class; the position counts the arguments a
    caller passes (``self`` and ``cls`` left out), and is None for a keyword-only parameter.
    """
    out = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text())
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owners[id(node)] if node.name == "__init__" else node.name
            args = node.args
            pos = args.posonlyargs + args.args
            if pos and pos[0].arg in ("self", "cls"):
                pos = pos[1:]
            first = len(pos) - len(args.defaults)
            out += [(name, arg.arg, first + i) for i, arg in enumerate(pos[first:])]
            out += [(name, arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_parameter_default_is_passed_outside_the_tests():
    """A default counts as passed when some call of a function of that name passes the parameter, by keyword,
    by position, or through ``*args`` / ``**kwargs``: a value no caller sets is a constant, not a parameter."""
    passed = set()
    for call in (node for node in _nodes() if isinstance(node, ast.Call)):
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            passed.add((callee, "*"))
        passed.update((callee, k.arg) for k in call.keywords)
        passed.update((callee, i) for i in range(len(call.args)))
    defaults = _defaults()
    assert len(defaults) > 20
    unpassed = [f"{fn}.{arg}" for fn, arg, i in defaults if not {(fn, "*"), (fn, arg), (fn, i)} & passed]
    assert unpassed == list(EXEMPT_DEFAULTS)
