"""One of each primitive: the duplicates PR 12 merged must not grow
back. Walks ``src/repro`` with ``ast`` so a comment or docstring that
merely mentions a name does not trip it."""

from __future__ import annotations

import ast
import importlib.util
import threading
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

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


def test_one_checkout_cost_rule():
    """µ's value lives in ``invariants.py``: no parameter default and no
    ``getattr`` fallback elsewhere is the literal 1.5, and the second
    checkout-cost bound report is gone."""
    gone = "bound_" + "comparison"  # split: keeps repo-wide grep empty

    def is_mu(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == 1.5

    offenders = []
    trees = dict(modules())
    for name, tree in trees.items():
        if name == "invariants.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if node.name == gone or any(
                    map(is_mu, args.defaults + args.kw_defaults)
                ):
                    offenders.append((name, node.name))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) == 3
                and is_mu(node.args[2])
            ):
                offenders.append((name, "getattr"))
    assert offenders == []
    assert any(map(is_mu, ast.walk(trees["invariants.py"])))  # sees µ


def test_one_checkout_shape():
    """A data model checks a version out as two parallel lists,
    ``checkout_columns(vid) -> (rids, payloads)``, and a checkout
    result carries ``rids`` beside its rows: the (rid, payload) pair
    list and the key -> rid map are gone from the code and its docs."""
    gone = ("checkout" + "_rids", "rid" + "_map")  # split: see above
    for top in ("src", "tests", "benchmarks", "examples", "docs"):
        for path in (REPO / top).rglob("*"):
            if path.suffix in (".py", ".md", ".txt", ".json", ".yml"):
                text = path.read_text()
                for name in gone:
                    assert name not in text, (path, name)
    trees = dict(modules())
    assert "checkout_columns" in _called_names(trees["core/cvd.py"])


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


def test_one_rule_decides_what_is_a_heat_event():
    """The daemon's fold, the CLI's fold and the offline miner all ask
    ``build_event``; none filters commands on its own."""
    users = set()
    for name, tree in modules():
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Name) and node.id == "HEAT_COMMANDS"
                for node in ast.walk(function)
            ):
                users.add((name, function.name))
    assert users == {("observe/heat.py", "build_event")}


def test_orpheusd_keeps_one_set_of_books():
    """Request outcomes are counted in the metrics ledger only, and the
    ``status`` op is the ``stats`` report, not a second builder."""
    tree = dict(modules())["service/daemon.py"]
    counters = [
        node.target.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and isinstance(node.target.value, ast.Name)
        and node.target.value.id == "self"
    ]
    assert counters == []
    daemon = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ServiceDaemon"
    )
    methods = {n.name for n in daemon.body if isinstance(n, ast.FunctionDef)}
    assert "stats_payload" in methods and "status" not in methods


def test_the_program_imports_no_benchmarks():
    """The bench suite is tooling: pytest runs the paper-figure benches
    and ``python -m benchmarks.e2e`` the end-to-end workloads, and no
    command (``doctor`` included) imports it."""
    imported = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((name, (node.module or "").split(".")[0]))
            elif isinstance(node, ast.Import):
                imported.update((name, a.name.split(".")[0]) for a in node.names)
    assert {name for name, top in imported if top == "benchmarks"} == set()


#: Telemetry names orpheusd no longer counts, because its one report
#: (``stats_payload``: ``stats``, ``/stats``, ``/metrics``) carries them.
LEDGER_ONLY = (
    "service.requests",
    "service.busy",
    "service.request.",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.evictions",
    "service.cache.invalidated_entries",
    "service.cache.bytes",
    "service.scheduler.",
    "service.sessions.",
    "service.degrade.",
    "service.quarantine.refused",
    "service.flight.records",
    "service.faults.fired",
    "service.slow_requests",
)


def _seed(root: Path) -> None:
    """The ``inter`` dataset (three rows) in a fresh repository."""
    from .service.conftest import seed_dataset

    (root / "data.csv").write_text("key,value\nk1,1\nk2,2\nk3,3\n")
    (root / "schema.csv").write_text(
        "key,text\nvalue,integer\nprimary_key,key\n"
    )
    seed_dataset(root)


def test_orpheusd_counts_each_event_once(tmp_path):
    """A miss, two hits, a commit and a BUSY shed through an in-process
    daemon: the report's ``telemetry`` counters hold none of the
    counters its ledger keeps, and the ledger holds every one of them."""
    from repro import telemetry
    from repro.resilience import failpoints
    from repro.service.client import ServiceBusyError

    from .service.conftest import DaemonHandle

    _seed(tmp_path)
    work = tmp_path / "work.csv"
    try:
        with DaemonHandle(tmp_path, per_cvd_depth=1) as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)  # miss
                client.checkout("inter", [1], inline=True)  # hit
                client.checkout("inter", [1], file=str(work))  # hit
            with work.open("a") as out:
                out.write("k4,4\r\n")
            failpoints.activate(
                "worker.before_execute", "delay", arg=0.5, count=1
            )

            def commit(message: str) -> None:
                with handle.client() as client:
                    client.commit(
                        "inter", file=str(work), message=message, parents=[1]
                    )

            slow = threading.Thread(target=commit, args=("edit",))
            slow.start()
            time.sleep(0.15)  # the commit holds the dataset's one slot
            with pytest.raises(ServiceBusyError):
                commit("refused")
            slow.join(timeout=30)
            assert not slow.is_alive()
            # Each connection finalizes its request after the reply is
            # sent, so the report may trail the clients by a moment.
            deadline = time.monotonic() + 5
            earlier_stats = 0  # each one is flight-recorded too
            with handle.client() as client:
                report = client.stats()
                while report["by_op"].get("commit", {"count": 0})["count"] < 2:
                    assert time.monotonic() < deadline, report["by_op"]
                    time.sleep(0.01)
                    earlier_stats += 1
                    report = client.stats()
    finally:
        failpoints.clear()
        telemetry.reset()
        telemetry.disable()

    counters = report["telemetry"]["counters"]
    assert counters.get("service.daemon.starts") == 1
    names = set(counters)
    assert sorted(n for n in names if n.startswith(LEDGER_ONLY)) == []

    requests, by_op = report["requests"], report["by_op"]
    assert (requests["busy"], requests["errors"]) == (1, 0)
    assert by_op["checkout"]["count"] == 3
    assert by_op["commit"]["count"] == by_op["commit"]["busy"] + 1 == 2
    assert by_op["commit"]["phases"]["execute"]["total_s"] >= 0.5
    assert (report["cache"]["misses"], report["cache"]["hits"]) == (1, 2)
    assert report["scheduler"]["shed_writes"] == 1
    assert report["sessions"]["total_opened"] == 4
    assert report["faults"]["fired"] == {"worker.before_execute": 1}
    assert report["flight"]["records_written"] == 5 + earlier_stats
    assert "heat" not in report
    assert sum(e["rows_scanned"] for e in report["by_dataset"].values()) >= 1
    for block in ("degrade", "quarantine"):
        assert block in report


def test_only_the_e2e_harness_benchmarks_orpheusd():
    """The daemon and the storage layouts are measured by
    ``benchmarks/e2e`` alone; the load generator is gone."""
    importers = set()
    for path in sorted((REPO / "benchmarks").rglob("*.py")):
        relative = path.relative_to(REPO / "benchmarks")
        if relative.parts[0] == "e2e":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            modules = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [a.name for a in node.names] if isinstance(node, ast.Import)
                else []
            )
            if any(m.startswith("repro.service") for m in modules):
                importers.add(relative.as_posix())
    assert importers == set()
    assert importlib.util.find_spec("repro.service.loadgen") is None
    assert not (SRC / "service" / "loadgen.py").exists()


def test_one_timing_gate():
    """``benchmarks/e2e compare`` is the one timing verdict and the
    figure benches' asserts the one shape verdict: the advisory runner,
    its frozen baselines and its decorated units are gone."""
    gone_files = {"runner.py", "regress.py", "registry.py", "__main__.py"}
    gone_files.add("baselines" + ".json")  # split: a search for it stays empty
    decorator = "quick" + "_bench"
    for path in sorted((REPO / "benchmarks").rglob("*")):
        relative = path.relative_to(REPO / "benchmarks")
        if relative.parts[0] == "e2e":
            continue
        assert path.name not in gone_files, relative
        if path.name.startswith("bench_") and path.suffix == ".py":
            names = {
                getattr(node, field)
                for node in ast.walk(ast.parse(path.read_text()))
                for field in ("id", "attr", "name", "asname", "module")
                if isinstance(getattr(node, field, None), str)
            }
            assert not {n for n in names if decorator in n}, relative


def bench_functions():
    """Every top-level function of ``benchmarks/*.py``, keyed by (module,
    name), and what each module's bare names resolve to."""
    functions, scopes = {}, {}
    for path in (REPO / "benchmarks").glob("*.py"):
        scope = scopes.setdefault(path.stem, {})
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions[path.stem, node.name] = node
                scope[node.name] = (path.stem, node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    target = (node.module.rpartition(".")[2], alias.name)
                    scope[alias.asname or alias.name] = target
    return functions, scopes


def reaches_assert(key, functions, scopes, seen) -> bool:
    """Does the function ``key`` assert, or call a benchmark function that does?"""
    if key in seen or key not in functions:
        return False
    seen.add(key)
    for node in ast.walk(functions[key]):
        if isinstance(node, ast.Assert):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = scopes[key[0]].get(node.func.id)
            if target and reaches_assert(target, functions, scopes, seen):
                return True
    return False


@pytest.mark.parametrize(
    "path",
    sorted((REPO / "benchmarks").glob("bench_*.py")),
    ids=lambda path: path.name,
)
def test_every_figure_bench_asserts_its_shape(path):
    """The figure benches' asserts are the one shape verdict: each bench
    test reaches an assert, in its own body or in a benchmark helper it
    calls, so the step that runs them cannot pass one vacuously."""
    functions, scopes = bench_functions()
    tests = [n for m, n in functions if m == path.stem and n.startswith("test_")]
    assert tests, path.name
    for name in tests:
        assert reaches_assert((path.stem, name), functions, scopes, set()), name


def test_a_request_is_appended_to_one_jsonl_file(tmp_path):
    """With every request slow, a checkout, a commit and a BUSY shed are
    each one line of one flight segment. The journaled file checkout and
    commit also land in the operation journal, the commit as its
    ``begin`` line too; nothing else is written per request."""
    import dataclasses

    from repro.resilience import failpoints
    from repro.resilience.recovery import LEGACY_INTENTS
    from repro.service.client import ServiceBusyError
    from repro.service.daemon import ServiceConfig

    from .service.conftest import DaemonHandle

    _seed(tmp_path)
    work = tmp_path / "work.csv"
    traces: dict[str, str] = {}
    try:
        with DaemonHandle(tmp_path, slow_ms=0, per_cvd_depth=1) as handle:
            with handle.client() as client:
                client.checkout("inter", [1], file=str(work))
                traces["checkout"] = client.last_trace["trace_id"]
            with work.open("a") as out:
                out.write("k4,4\r\n")
            failpoints.activate(
                "worker.before_execute", "delay", arg=0.5, count=1
            )

            def commit() -> None:
                with handle.client() as client:
                    client.commit(
                        "inter", file=str(work), message="edit", parents=[1]
                    )
                    traces["commit"] = client.last_trace["trace_id"]

            writer = threading.Thread(target=commit)
            writer.start()
            time.sleep(0.15)  # the commit holds the dataset's one slot
            with handle.client() as client, pytest.raises(ServiceBusyError):
                client.commit(
                    "inter", file=str(work), message="refused", parents=[1]
                )
            traces["busy"] = client.last_trace["trace_id"]
            writer.join(timeout=30)
    finally:
        failpoints.clear()

    orpheus = tmp_path / ".orpheus"
    logs = sorted(orpheus.rglob("*.jsonl"))
    # A commit's trace is on two journal lines, its `begin` and its op
    # record; there is no second log.
    journaled = {
        "checkout": {"journal/ops.jsonl": 1},
        "commit": {"journal/ops.jsonl": 2},
        "busy": {},
    }
    assert not (orpheus / "journal" / LEGACY_INTENTS).exists()
    assert set(traces) == set(journaled)
    for name, trace in sorted(traces.items()):
        written = {
            log.relative_to(orpheus).as_posix(): count
            for log in logs
            if (count := sum(
                trace in line for line in log.read_text().splitlines()
            ))
        }
        flight = [path for path in written if path.startswith("journal/flight/")]
        assert len(flight) == 1 and written[flight[0]] == 1, (name, written)
        del written[flight[0]]
        assert written == journaled[name], name

    # split: keeps repo-wide grep for the deleted names empty
    assert importlib.util.find_spec("repro.service." + "replay") is None
    for name, tree in modules():
        assert not any(
            isinstance(node, ast.ClassDef) and node.name == "Slow" + "Log"
            for node in ast.walk(tree)
        ), name
    fields = {field.name for field in dataclasses.fields(ServiceConfig)}
    assert not any(name.startswith("flight") for name in fields)


def test_one_module_decides_whether_a_pid_is_alive():
    """The lock and the service client once disagreed on an OSError
    other than ESRCH/EPERM; the lock's answer (dead) is the only one."""
    definers = [
        name
        for name, tree in modules()
        if any(
            isinstance(node, ast.FunctionDef)
            and node.name.lstrip("_") == "pid_alive"
            for node in ast.walk(tree)
        )
    ]
    assert definers == ["resilience/lock.py"]


def test_the_observe_package_only_renders_the_daemon():
    """``orpheus top``'s poll loop lives in the CLI beside ``serve``:
    no module under ``observe/`` opens a client connection."""
    importers = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
                imported += [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            if "repro.service.client" in imported:
                importers.add(name)
    assert {name for name in importers if name.startswith("observe/")} == set()
    assert "cli.py" in importers  # the walk sees what it guards


#: What the span-only telemetry deleted: a resource profiler and a
#: one-JSON-line-per-span log bridge (split so a search stays empty).
PROFILER_TOKENS = [
    "trace" + "malloc",
    "ORPHEUS_" + "PROFILE",
    "enable_" + "profiling",
    "repro.telemetry" + ".log",
    "observe" + ".profile",
]


@pytest.mark.parametrize("token", PROFILER_TOKENS)
def test_a_span_only_times(token):
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if token in path.read_text()
    ]
    assert offenders == []


#: Every environment variable the program reads.
ORPHEUS_NAMES = {
    "ORPHEUS_CLIENT_DEADLINE_MS",
    "ORPHEUS_FAILPOINTS",
    "ORPHEUS_LOCK_TIMEOUT",
    "ORPHEUS_PAGE_BYTES",
    "ORPHEUS_STATE_LAYOUT",
    "ORPHEUS_USER",
}


def test_the_program_reads_six_orpheus_variables():
    import re

    found = {
        match
        for path in SRC.rglob("*.py")
        for match in re.findall(r"ORPHEUS_[A-Z_]+", path.read_text())
    }
    assert found == ORPHEUS_NAMES


def test_no_pagestore_module_keeps_a_page_after_its_read():
    """A page is read from its file each time a segment is decoded:
    no module under ``pagestore/`` holds a frame map, an LRU or a
    memoizing decorator that could keep a payload once a read returns."""
    keepers = {"OrderedDict", "lru_cache", "cache", "_frames", "frames"}
    found = []
    for name, tree in modules():
        if not name.startswith("pagestore/"):
            continue
        for node in ast.walk(tree):
            word = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if word in keepers:
                found.append((name, word))
    assert found == []


#: What the buffer-pool deletion took out of the program and its docs
#: (split so a search stays empty).
BUFFER_POOL_TOKENS = [
    "ORPHEUS_" + "BUFFER_BYTES",
    "put_" + "dirty",
    "mark_" + "clean",
    "discard_" + "dirty",
    "probe_" + "buffer_pool",
    "write" + "backs",
]


@pytest.mark.parametrize("token", BUFFER_POOL_TOKENS)
def test_no_buffer_pool_is_left_to_describe(token):
    texts = [*sorted(SRC.rglob("*.py")), *sorted((REPO / "docs").glob("*.md"))]
    offenders = [
        path.relative_to(REPO).as_posix()
        for path in [*texts, REPO / "README.md"]
        if token in path.read_text()
    ]
    assert offenders == []


def test_timings_has_no_resource_columns_whatever_the_environment(tmp_path):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env["ORPHEUS_" + "PROFILE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--timings", "ls"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("cli.ls  ")
    assert "cpu=" not in done.stderr and "peak_mem=" not in done.stderr
