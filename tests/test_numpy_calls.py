"""Lint: the library calls ndarray methods, not numpy's module-level
wrappers that only forward to them.

On the arrays elabcat works with (tens to thousands of entries) a call
costs more than its entries, and each wrapper below adds Python frames
(a dispatcher, ``_wrapfunc``) in front of the C method: ``np.take`` is
about four times ``a.take`` on a 100-entry array.  ``np.diff`` is a
slice difference, ``np.append`` a ``np.concatenate``, ``np.array_equal``
a shape test and ``(a == b).all()``.  ``np.column_stack`` is a
``np.concatenate`` of ``[:, None]`` columns, ``np.take_along_axis`` a
``take`` on the flat view, ``np.broadcast_to`` a ``repeat``, ``np.split``
two slices and ``np.pad`` a ``np.concatenate`` with zeros.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "elabcat"

WRAPPERS = frozenset({
    "take", "searchsorted", "argsort", "flatnonzero", "nonzero", "repeat",
    "cumsum", "argmax", "argmin", "diff", "append", "array_equal",
    "column_stack", "take_along_axis", "broadcast_to", "split", "pad",
})


def wrapper_calls(source: str, filename: str) -> list[str]:
    """'file:line np.X' for every call np.X(...) with X in WRAPPERS."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        f = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name) and f.value.id == "np"
                and f.attr in WRAPPERS):
            found.append((node.lineno, f"{filename}:{node.lineno} np.{f.attr}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_wrapper_calls(path):
    calls = wrapper_calls(path.read_text(encoding="utf-8"), path.name)
    assert not calls, "call the ndarray method instead:\n" + "\n".join(calls)


def test_the_lint_sees_every_spelling():
    src = ("import numpy as np\n"
           "a = np.take(x, i)\n"
           "b = np.flatnonzero(\n  m)\n"
           "c = x.take(i) + np.sort(x) + np.take_along_axis(x, i, 0)\n"
           "d = [np.diff(v) for v in w]\n")
    assert wrapper_calls(src, "m.py") == ["m.py:2 np.take", "m.py:3 np.flatnonzero",
                                          "m.py:5 np.take_along_axis", "m.py:6 np.diff"]
