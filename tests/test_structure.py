"""Module boundaries of the library: no module of ``anchormesh`` imports
another's private names or passes a private keyword, and the pair budget
of the grid searches is defined and read in ``grid`` alone, as the
coordinate limit is named in ``mesh`` alone and the quantizer's weight rule
is applied in ``quantize`` alone."""

import ast
from pathlib import Path

import pytest

import anchormesh

MODULES = sorted(Path(anchormesh.__file__).parent.glob("*.py"))


def _private_crossings(source):
    """``(line, name)`` of each relative import of an underscore name and of
    each underscore keyword of a call in the module ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            hits += [(node.lineno, alias.name) for alias in node.names
                     if alias.name.startswith("_")]
        elif isinstance(node, ast.Call):
            hits += [(node.lineno, f"{kw.arg}=") for kw in node.keywords
                     if kw.arg is not None and kw.arg.startswith("_")]
    return hits


def test_the_check_sees_private_imports_and_keywords():
    source = "\n".join([
        "from __future__ import annotations",
        "from .mesh import _ranges, unique_edges",
        "from . import _private",
        "from numpy import _core",  # not an anchormesh module
        "f(_edges=1, split=2, **kwargs)",
    ])
    assert _private_crossings(source) == [(2, "_ranges"), (3, "_private"), (5, "_edges=")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_name_crosses_a_module(path):
    assert _private_crossings(path.read_text()) == []


def _names(path):
    """Every name and attribute the module at ``path`` reads or binds."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _modules_naming(name):
    return {path.stem for path in MODULES if name in set(_names(path))}


def test_the_block_budget_is_defined_and_read_in_grid_alone():
    assert _modules_naming("_BLOCK_PAIRS") == {"grid"}


def test_the_coordinate_limit_is_named_in_mesh_alone():
    # every other module reaches the coordinate rule through
    # mesh.checked_points, or the query bound through mesh.QUERY_LIMIT
    assert _modules_naming("COORDINATE_LIMIT") == {"mesh"}


def test_the_weight_rule_is_applied_in_quantize_alone():
    # the decoder gets its weights through dequantize_field, as the
    # encoder does through quantize_field
    assert _modules_naming("adaptive_weights") == {"quantize"}
