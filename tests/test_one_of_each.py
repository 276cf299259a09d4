"""One of each primitive: the duplicates PR 12 merged must not grow
back. Walks ``src/repro`` with ``ast`` so a comment or docstring that
merely mentions a name does not trip it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only modules allowed to rename a file into place or make a temp:
#: fsio does it for everyone, the state store interleaves failpoints
#: and backup rotation between the steps.
DURABLE_WRITERS = {"resilience/fsio.py", "resilience/statestore.py"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def calls(tree, owner: str, attr: str) -> bool:
    """Does ``tree`` call ``owner.attr(...)``?"""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == owner
        for node in ast.walk(tree)
    )


def test_only_fsio_and_the_state_store_replace_files():
    offenders = {
        name
        for name, tree in modules()
        if calls(tree, "os", "replace") or calls(tree, "tempfile", "mkstemp")
    }
    assert offenders <= DURABLE_WRITERS, sorted(offenders - DURABLE_WRITERS)
    assert "resilience/fsio.py" in offenders  # the walk sees what it guards


def test_one_module_parses_failpoint_specs():
    definers = [
        name
        for name, tree in modules()
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "parse_spec"
            for node in ast.walk(tree)
        )
    ]
    assert definers == ["resilience/failpoints.py"]


def test_one_module_reads_jsonl_logs():
    """``json.loads(line`` over a log file lives in ``fsio.read_jsonl``;
    the wire protocol's frame decode is not a log reader."""
    readers = {
        name
        for name, tree in modules()
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "line"
            for node in ast.walk(tree)
        )
    }
    assert readers == {"resilience/fsio.py", "service/protocol.py"}


def test_the_second_failpoint_knob_is_gone():
    knob = "ORPHEUS_SERVICE_" + "FAILPOINTS"  # split: keeps repo-wide grep empty
    for path in SRC.rglob("*.py"):
        assert knob not in path.read_text(), path
    assert not (SRC / "service" / "faults.py").exists()


def test_no_dict_shaped_segment_is_left():
    """Version -> rids and rid -> payload are stored in the physical
    tables only: the lazy dict stub that paged a second copy of each, and
    the two codecs that encoded them, must not come back."""
    gone = ("Paged" + "Dict", "records" + ".v", "rlist" + "map")  # split: see above
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for name in gone:
            assert name not in text, (path, name)
