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


def _called_names(tree) -> set[str]:
    """Every ``f(...)`` and ``x.f(...)`` name called in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_front_ends_leave_checkout_and_commit_to_the_commands():
    """The CLI and orpheusd call ``Orpheus.execute``; neither writes a
    checkout's CSV nor commits to a CVD itself."""
    trees = dict(modules())
    for name in ("cli.py", "service/daemon.py"):
        called = _called_names(trees[name])
        assert "write_csv" not in called, name
        assert "commit" not in called, name
        assert "execute" in called, name  # the walk sees what it guards


def test_one_function_writes_the_journal_fields():
    """dataset/versions/rows of a journal record come from one rule."""
    fields = {"input_versions", "output_version"}
    writers = set()
    for name, tree in modules():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and (
                        target.attr in fields
                        or (
                            target.attr == "rows"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "record"
                        )
                    ):
                        writers.add((name, function.name))
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "OpRecord"
                    and any(k.arg in fields | {"rows"} for k in node.keywords)
                ):
                    writers.add((name, function.name))
    assert writers == {("observe/journal.py", "fill_record")}
