"""The package's exceptions stay flat: one class per documented exit code.

``cli.main`` reads only the ``exit_code`` and message of a
``SpectralReachError``, so an exception class per failure would be a
name that nothing catches.  The ``OSError``, ``ValueError`` and
``MemoryError`` it also catches come from Python, numpy and json, never
from a ``raise`` in the package, so each refusal has one class per exit
code.  The check reads the package source with ``ast`` and the
exit-code table of README.md.
"""

import ast
import builtins
import re
from pathlib import Path

from spectral_reach import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_reach"
LEAVES = ("InputError", "PreconditionError", "NumericalError")
#: built-in raises that a protocol asks for: a module ``__getattr__`` (PEP 562)
PROTOCOL_RAISES = {("__init__.py", "AttributeError")}


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _readme_codes() -> dict[str, int]:
    """Exit code of each class the README's exit-code table names first in a row."""
    codes = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        m = re.match(r"\| (\d) \|.*?`(\w+Error)`", line)
        if m:
            codes[m.group(2)] = int(m.group(1))
    return codes


def test_one_error_class_per_exit_code():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and path.name != "errors.py"
                    and any(re.search(r"(Error|Exception)$", _base_name(b))
                            for b in node.bases)):
                problems.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = _base_name(exc)
                if name == "SpectralReachError":
                    problems.append(f"{path.name}:{node.lineno} raises the base class")
                builtin = getattr(builtins, name, None)
                if (isinstance(builtin, type) and issubclass(builtin, BaseException)
                        and (path.name, name) not in PROTOCOL_RAISES):
                    problems.append(f"{path.name}:{node.lineno} raises the built-in {name}")
    assert problems == []

    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["SpectralReachError", *LEAVES]
    leaves = [getattr(errors, name) for name in LEAVES]
    assert all(leaf.__bases__ == (errors.SpectralReachError,) for leaf in leaves)
    assert [leaf.exit_code for leaf in leaves] == [1, 2, 3]
    assert _readme_codes() == {name: leaf.exit_code for name, leaf in zip(LEAVES, leaves)}
