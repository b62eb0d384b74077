"""Each error's kind is decided once, by the class the raising module names.

An error's exit code comes from its class (see errors.py). A handler in
``cli.py`` or ``metrics.py`` that catches a flapwear error class and
raises an error of another class in its body would restate that error's
kind away from the module that raises it. Read from the module's AST:
a bare ``raise``, a raise of the caught error itself or of a class the
handler names, and a handler that raises nothing, all pass.

Every module of the package raises bad input, data or configuration as
a FlapwearError: a raise that names a class outside the hierarchy is
listed, with its reason, in FOREIGN_RAISES. A bare ``raise``, a held
exception and a call of a method that returns an error all pass.
"""

import ast
import builtins
import importlib
import os
from pathlib import Path

import flapwear.cli  # imports every module that defines an error class
import flapwear.errors
from flapwear.errors import FlapwearError

CLI = Path(flapwear.cli.__file__)
PACKAGE = CLI.parent
METRICS = PACKAGE / "metrics.py"

# (module, function, class) of each raise of a class outside the hierarchy, with its reason.
FOREIGN_RAISES = {
    ("synth", "_NumpyWords.integers", "ValueError"):
        "mirrors numpy's own guard on the range; no input reaches it",
    ("cli", "_write_reports", "IsADirectoryError"):
        "an OSError, which _report_errors converts to a ConfigError naming the report",
}


def _error_names() -> set[str]:
    """The name of every flapwear error class."""
    names, pending = set(), [FlapwearError]
    while pending:
        cls = pending.pop()
        names.add(cls.__name__)
        pending.extend(cls.__subclasses__())
    return names


ERROR_NAMES = _error_names()


def _name(node: ast.expr) -> str | None:
    """The last part of a dotted name, or None for any other expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _rewraps(source: str) -> list[str]:
    """Each raise, in a handler of a flapwear error class, of a class that handler does not name."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught = {_name(t) for t in types}
        if not caught & ERROR_NAMES:
            continue
        for node in (n for stmt in handler.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if raised != handler.name and raised not in caught:
                found.append(f"line {node.lineno}: except {ast.unparse(handler.type)} raises "
                             f"{ast.unparse(node.exc)}")
    return found


def test_no_cli_handler_of_a_flapwear_error_raises_another_class():
    assert _rewraps(CLI.read_text(encoding="utf-8")) == []


def _handlers(path: Path) -> set[str]:
    """The class expression of each except clause in path's source."""
    return {
        ast.unparse(node.type)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    }


def test_cli_has_handlers_of_flapwear_errors_to_check():
    """cli's handler, and metrics' handler of a degenerate ROC, are checked and re-raise nothing."""
    for path in (CLI, METRICS):
        assert _rewraps(path.read_text(encoding="utf-8")) == [], path.name
    assert "FlapwearError" in _handlers(CLI)
    assert "DegenerateInput" in _handlers(METRICS)


def test_a_rewrap_is_found_and_a_reraise_passes():
    rewrap = (
        "try:\n    run()\n"
        "except simulate.BadRow as exc:\n    raise ConfigError(str(exc)) from exc\n"
    )
    assert _rewraps(rewrap) == ["line 4: except simulate.BadRow raises ConfigError(str(exc))"]
    passing = (
        "try:\n    run()\n"
        "except FlapwearError:\n    raise\n"
        "except metrics.DegenerateInput as exc:\n    warnings.append(str(exc))\n"
        "except ValidationError as exc:\n    raise exc\n"
        "except (ParseError, ConfigError):\n    raise ConfigError('again')\n"
        "except ValueError as exc:\n    raise ConfigError(str(exc)) from exc\n"
    )
    assert _rewraps(passing) == []


def _resolve(node: ast.expr, namespace: dict):
    """The object a dotted name reads in namespace, then in builtins; None for any other."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    return None


def _foreign_raises(source: str, namespace: dict) -> set[tuple[str, str]]:
    """(function, class) of each raise that names a class that is no FlapwearError.

    Names are read in namespace, the module's globals; a raise of a name
    that is not a class there passes.
    """
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = _resolve(exc, namespace)
            if isinstance(cls, type) and not issubclass(cls, FlapwearError):
                found.add((".".join(scope), cls.__name__))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_every_module_raises_flapwear_errors():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "flapwear" if path.stem == "__init__" else f"flapwear.{path.stem}"
        )
        source = path.read_text(encoding="utf-8")
        found |= {(path.stem, *raise_) for raise_ in _foreign_raises(source, vars(module))}
    assert found == set(FOREIGN_RAISES)


def test_a_foreign_raise_is_found_and_held_errors_pass():
    source = (
        "def check(x):\n"
        "    if x:\n        raise TypeError(x)\n"
        "    raise errors.ConfigError(x)\n"
        "class Box:\n"
        "    def open(self, held):\n        raise held\n"
        "    def shut(self, decisions):\n        raise decisions.rejection()\n"
        "    def seal(self):\n        raise errors.EmptyInput\n"
        "    def drop(self):\n        raise os.error(2, 'gone')\n"
        "try:\n    pass\nexcept OSError:\n    raise\n"
    )
    found = _foreign_raises(source, {"errors": flapwear.errors, "os": os})
    assert found == {("check", "TypeError"), ("Box.drop", "OSError")}
