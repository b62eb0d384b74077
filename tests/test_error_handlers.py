"""The CLI decides no library error's kind a second time.

An error's exit code comes from its class (see errors.py). A handler in
``cli.py`` that catches a flapwear error class and raises an error of
another class in its body would restate that error's kind away from the
module that raises it. Read from the module's AST: a bare ``raise``, a
raise of the caught error itself or of a class the handler names, and a
handler that raises nothing, all pass.
"""

import ast
from pathlib import Path

import flapwear.cli  # imports every module that defines an error class
from flapwear.errors import FlapwearError

CLI = Path(flapwear.cli.__file__)


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


def test_cli_has_handlers_of_flapwear_errors_to_check():
    handlers = [
        ast.unparse(node.type)
        for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    assert {"FlapwearError", "metrics.DegenerateInput"} <= set(handlers)


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
