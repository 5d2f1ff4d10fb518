"""RPR005: literal column names must exist in the COLUMN_SPECS registry.

Every consumer of the record schema — ``RecordBatch`` accessors, CSV
field lists, the codec converters — addresses columns by serialized
name.  A typo'd or stale string (``"byte"`` for ``"bytes"``,
``"bot_cat"`` after a rename) compiles fine and often *runs* fine on
sparse fixtures, then drops a column from artifacts in production.
Valid names are resolved by importing :mod:`repro.logs.schema` (the
single registry), never by regexing the schema source.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..findings import Finding
from ..registry import rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import Project

#: Dict-like locals addressed by serialized column name.
_COLUMN_DICT_NAMES = {"columns", "_columns", "_SPEC_BY_NAME"}

#: Locals holding a serialized row dict (``LogRecord.to_dict`` shape).
_ROW_DICT_NAMES = {"row"}

#: Callables whose literal string arguments are column names:
#: ``batch.column(name)`` and the compliance metrics' value reader
#: ``_column_values(records, *names)``.
_COLUMN_CALLS = {"column", "_column_values"}


def _registry_columns() -> frozenset[str] | None:
    """Valid serialized names, from the live registry."""
    try:
        from repro.logs.schema import COLUMN_SPECS
    except Exception:  # pragma: no cover - repro not importable
        return None
    return frozenset(spec.name for spec in COLUMN_SPECS)


def _literal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


@rule(
    "RPR005",
    "schema-drift",
    "literal column names must exist in repro.logs.schema.COLUMN_SPECS",
)
def check_schema_drift(project: "Project") -> Iterator[Finding]:
    valid = _registry_columns()
    if valid is None:
        return
    for module in project.modules:
        if module.tree is None or not module.name.startswith("repro."):
            continue
        for node in ast.walk(module.tree):
            yield from _check_node(module, node, valid)


def _check_node(module, node: ast.AST, valid: frozenset[str]):
    # batch.column("name") — any receiver; int indexes (pyarrow) pass.
    if (
        isinstance(node, ast.Call)
        and _callee(node) in _COLUMN_CALLS
        and not node.keywords
    ):
        for arg in node.args:
            name = _literal(arg)
            if name is not None and name not in valid:
                yield _finding(module, arg, name)
    # columns["name"] / _SPEC_BY_NAME["name"] / row["name"]
    elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        if node.value.id in _COLUMN_DICT_NAMES | _ROW_DICT_NAMES:
            name = _literal(node.slice)
            if name is not None and name not in valid:
                yield _finding(module, node.slice, name)
    # row.get("name", ...) on a serialized row dict
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in _ROW_DICT_NAMES
        and node.args
    ):
        name = _literal(node.args[0])
        if name is not None and name not in valid:
            yield _finding(module, node.args[0], name)
    # csv.DictWriter(..., fieldnames=[...]) with literal field lists
    elif isinstance(node, ast.Call):
        for kw in node.keywords:
            if kw.arg != "fieldnames":
                continue
            if isinstance(kw.value, (ast.List, ast.Tuple)):
                for element in kw.value.elts:
                    name = _literal(element)
                    if name is not None and name not in valid:
                        yield _finding(module, element, name)


def _callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _finding(module, node: ast.expr, name: str) -> Finding:
    return Finding(
        "RPR005",
        module.rel,
        node.lineno,
        node.col_offset + 1,
        f"column {name!r} is not in the COLUMN_SPECS registry "
        "(repro.logs.schema); schema drift silently corrupts "
        "artifacts — add the column to the registry or fix the name",
    )
