"""Serving the cache hit as bytes: an inline checkout's rows are encoded
once per cache entry and spliced into every later frame.

* differential — a spliced frame decodes equal to the frame the old
  path built (``encode(Response(...).to_dict())``), hit and miss, for
  every value shape a row can hold;
* structural — serving a hit runs the same number of Python calls for
  10 rows and for 10,000;
* the corruption seal covers the bytes; the byte budget counts them;
  a torn send still tears the spliced frame.
"""

from __future__ import annotations

import datetime
import decimal
import socket
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.core.commands import Orpheus
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience import failpoints
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.protocol import (
    LineChannel,
    Request,
    Response,
    decode_response,
    encode,
    encode_response,
)

from tests.pagestore.test_codec import python_calls
from tests.service.conftest import seed_dataset

SESSION = SimpleNamespace(user="")
TRACE = {"trace_id": "9f2c64b01a77d3e8", "span_id": "c01d", "execute_s": 0.0004}

ROW_CASES = {
    "plain": [("k1", 1), ("k2", 2)],
    "none": [("k1", None), (None, 2)],
    "non_ascii": [("naïve ☃ 数据", 1), ('quote " \\ \n', 2)],
    "floats": [("k1", 1.5), ("k2", -0.0), ("k3", 1e300)],
    "default_str": [
        ("k1", datetime.date(2020, 1, 2)),
        ("k2", decimal.Decimal("3.14")),
    ],
    "int_arrays": [("k1", [1, 2, 3]), ("k2", []), ("k3", (4, (5, 6)))],
    "empty_version": [],
}


class StubRepository:
    """Just enough of an Orpheus for ``_op_checkout``: versions hold
    whatever rows a case needs (a real CVD cannot store a date)."""

    cmd_checkout = Orpheus.cmd_checkout
    schema = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)])

    def __init__(self, versions: dict[int, list[tuple]]) -> None:
        self.versions = versions
        self.access = SimpleNamespace(check_cvd_access=lambda *a, **k: None)
        self.checkouts = 0

    def cvd(self, _dataset):
        return self

    def checkout(self, vids):
        self.checkouts += 1
        vids = [vids] if isinstance(vids, int) else list(vids)
        rows = [row for vid in vids for row in self.versions[vid]]
        return SimpleNamespace(
            columns=["key", "value"], rows=rows, parents=tuple(vids)
        )


def stub_daemon(tmp_path, versions) -> ServiceDaemon:
    daemon = ServiceDaemon(ServiceConfig(root=str(tmp_path)))
    daemon.orpheus = StubRepository(versions)
    return daemon


def inline_checkout(daemon, vids) -> dict:
    request = Request(
        op="checkout", id=3, params={"dataset": "d", "versions": vids, "inline": True}
    )
    return daemon._op_checkout(SESSION, request)


def cached_entry(handle, vid: int):
    """A daemon's cache entry for one version of the seeded dataset."""
    schema = handle.daemon.orpheus.cvd("inter").schema
    return handle.daemon.cache.get("inter", [vid], schema)


def old_frame(data: dict, rows: list[tuple]) -> bytes:
    """The pre-splice serving path, kept here as the reference."""
    payload = dict(data, data=[list(row) for row in rows])
    return encode(Response(id=3, status=protocol.OK, data=payload, trace=TRACE).to_dict())


# ----------------------------------------------------------------------
# (a) differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(ROW_CASES))
@pytest.mark.parametrize("vids", [[1], [1, 2]], ids=["single", "multi"])
def test_spliced_frame_decodes_like_the_encoded_dict(tmp_path, case, vids):
    rows = ROW_CASES[case]
    daemon = stub_daemon(tmp_path, {1: rows, 2: rows[:1]})
    expected_rows = [row for vid in vids for row in daemon.orpheus.versions[vid]]
    bodies = []
    for cached in (False, True):  # the miss, then the hit
        data = inline_checkout(daemon, vids)
        assert data["cached"] is cached
        assert isinstance(data["data"], bytes)
        bodies.append(data["data"])
        frame = encode_response(
            Response(id=3, status=protocol.OK, data=data, trace=TRACE)
        )
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        assert decode_response(frame) == decode_response(
            old_frame(data, expected_rows)
        )
    # Encoded once: the hit served the very object the miss stored.
    assert bodies[0] is bodies[1]
    assert bodies[0] is daemon.cache.get("d", vids, StubRepository.schema).body
    assert daemon.orpheus.checkouts == 1


def test_rows_of_an_entry_with_a_body_are_never_encoded_again(tmp_path, monkeypatch):
    daemon = stub_daemon(tmp_path, {1: ROW_CASES["plain"]})
    inline_checkout(daemon, [1])
    monkeypatch.setattr(
        protocol, "encode_rows", lambda rows: pytest.fail("re-encoded a hit")
    )
    for _ in range(3):
        data = inline_checkout(daemon, [1])
        encode_response(Response(id=3, status=protocol.OK, data=data))


def test_frame_builder_without_a_body_is_plain_encode():
    for response in (
        Response(id=1, status=protocol.OK, data={"pong": True}, trace=TRACE),
        Response(id=2, status=protocol.BUSY, error="full", error_type="QueueFullError"),
        Response(id=3, status=protocol.OK, data={"data": [[1, 2]], "row_count": 1}),
        Response(id=4, status=protocol.OK, data={}),
    ):
        assert encode_response(response) == encode(response.to_dict())


def test_body_alone_in_the_data_object():
    frame = encode_response(
        Response(id=1, status=protocol.OK, data={"data": b"[[1,2]]"})
    )
    assert decode_response(frame).data == {"data": [[1, 2]]}


def test_inline_checkout_over_the_socket_matches_the_library(
    workspace, daemon_factory, tmp_path
):
    """Miss and hit, one version and a merge of two, through a real
    daemon and the unchanged client."""
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            work = tmp_path / "w.csv"
            client.checkout("inter", [1], file=str(work))
            work.write_text(work.read_text() + "k4,4\n")
            client.commit("inter", file=str(work), message="grow", parents=[1])
            # The commit admitted v2 (without a body): its first inline
            # checkout is a hit that encodes the rows.
            for vids, first in (([2], True), ([1, 2], False)):
                result = handle.daemon.orpheus.cvd("inter").checkout(
                    vids if len(vids) > 1 else vids[0]
                )
                for cached in (first, True):
                    data = client.checkout("inter", vids, inline=True)
                    assert data["cached"] is cached
                    assert data["data"] == [list(row) for row in result.rows]
                    assert data["rows"] == len(result.rows)
                    assert data["columns"] == list(result.columns)
                    assert data["parents"] == list(result.parents)


# ----------------------------------------------------------------------
# (b) structural: no per-row Python on a hit
# ----------------------------------------------------------------------
def test_python_calls_on_a_hit_do_not_grow_with_the_rows(tmp_path):
    daemon = stub_daemon(
        tmp_path,
        {1: [(f"k{i}", i) for i in range(10)], 2: [(f"k{i}", i) for i in range(10_000)]},
    )

    def serve(vid):
        def hit():
            data = inline_checkout(daemon, [vid])
            assert data["cached"]
            encode_response(Response(id=3, status=protocol.OK, data=data, trace=TRACE))

        return hit

    for vid in (1, 2):
        inline_checkout(daemon, [vid])  # the miss admits the entry
    small, large = python_calls(serve(1)), python_calls(serve(2))
    assert abs(large - small) <= 5, (small, large)


# ----------------------------------------------------------------------
# (c) the seal covers the bytes served
# ----------------------------------------------------------------------
def test_corrupt_body_is_caught_by_the_byte_seal(workspace, daemon_factory):
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            oracle = client.checkout("inter", [1], inline=True)["data"]
            stale = cached_entry(handle, 1)
            before = telemetry.get_registry().counter_value(
                "service.cache.corruption_detected"
            )
            failpoints.activate("cache.corrupt_entry", "corrupt", count=1)
            data = client.checkout("inter", [1], inline=True)
            # Detected, dropped and rematerialized: the client never
            # sees the damage.
            assert data["data"] == oracle
            assert data["cached"] is False
            assert (
                telemetry.get_registry().counter_value(
                    "service.cache.corruption_detected"
                )
                == before + 1
            )
            # It was the bytes that were damaged and the byte seal that
            # caught it; the row seal alone would have passed.
            assert len(stale.rows) == stale.sealed_rows
            assert not stale.verify()
            fresh = cached_entry(handle, 1)
            assert fresh is not stale and fresh.verify()
            assert client.checkout("inter", [1], inline=True)["cached"] is True


def test_corrupt_write_through_entry_is_caught_and_healed(
    workspace, daemon_factory, tmp_path
):
    """The entry a commit admits is sealed like any other, and its rows
    are its own list: damaging them leaves the CVD untouched."""
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            work = tmp_path / "w.csv"
            client.checkout("inter", [1], file=str(work))
            work.write_text(work.read_text() + "k4,4\n")
            assert client.commit("inter", file=str(work))["version"] == 2
            admitted = cached_entry(handle, 2)
            assert admitted.body is None  # so the fault damages the rows
            cvd = handle.daemon.orpheus.cvd("inter")
            oracle = cvd.checkout(2).rows
            failpoints.activate("cache.corrupt_entry", "corrupt", count=1)
            pulled = client.checkout("inter", [2], file=str(work))
            assert pulled["cached"] is False
            assert "__corrupt__" not in work.read_text()
            assert not admitted.verify()
            assert cvd.payloads_of(sorted(cvd.membership(2))) == oracle
            assert cvd.checkout(2).rows == oracle
            healed = cached_entry(handle, 2)
            assert healed is not admitted and healed.verify()
            assert healed.rows == oracle
            assert client.checkout("inter", [2], file=str(work))["cached"] is True


# ----------------------------------------------------------------------
# (d) the budget counts the bodies
# ----------------------------------------------------------------------
def test_budget_counts_bodies_and_file_checkouts_build_none(
    workspace, daemon_factory, tmp_path
):
    seed_dataset(workspace)
    with daemon_factory() as handle:
        cache = handle.daemon.cache
        with handle.client() as client:
            work = tmp_path / "w.csv"
            for parent in (1, 2, 3):
                client.checkout("inter", [parent], file=str(work))
                work.write_text(work.read_text() + f"n{parent},{parent}\n")
                client.commit(
                    "inter", file=str(work), message="grow", parents=[parent]
                )
            # Room for about two and a half entries with bodies.
            client.checkout("inter", [4], inline=True)
            cache.budget_bytes = int(cached_entry(handle, 4).size_bytes * 2.5)
            client.flush_cache()

            def admitted() -> int:
                return sum(e.size_bytes for e in cache._entries.values())

            client.checkout("inter", [1], file=str(work))
            file_only = cached_entry(handle, 1)
            assert file_only.body is None
            assert cache.stats().bytes == admitted() == file_only.size_bytes

            # The first inline hit builds the body and re-admits.
            data = client.checkout("inter", [1], inline=True)
            assert data["cached"] is True
            with_body = cached_entry(handle, 1)
            assert with_body.body is not None
            assert with_body.rows is file_only.rows
            assert with_body.size_bytes == file_only.size_bytes + len(with_body.body)
            assert cache.stats().bytes == admitted() == with_body.size_bytes

            # A later file checkout reuses the entry and leaves it alone.
            client.checkout("inter", [1], file=str(work))
            assert cached_entry(handle, 1) is with_body

            for vid in (2, 3, 4, 1, 2):
                client.checkout("inter", [vid], inline=True)
                client.checkout("inter", [vid], file=str(work))
                stats = cache.stats()
                assert stats.bytes == admitted()
                assert stats.bytes <= cache.budget_bytes
            assert cache.stats().evictions > 0


# ----------------------------------------------------------------------
# (e) a torn send tears the spliced frame
# ----------------------------------------------------------------------
def test_torn_send_is_a_partial_newline_free_frame(workspace, daemon_factory):
    seed_dataset(workspace)
    with daemon_factory() as handle:
        path = handle.daemon.config.resolved_socket()
        with handle.client() as client:
            whole = client.checkout("inter", [1], inline=True)  # admit
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(path)
        channel = LineChannel(sock)
        channel.send({"op": "hello", "protocol": protocol.PROTOCOL_VERSION, "id": 1})
        assert decode_response(channel.recv_line()).ok
        failpoints.activate("conn.before_send", "torn", count=1)
        channel.send(
            {"op": "checkout", "id": 2, "dataset": "inter", "versions": [1], "inline": True}
        )
        torn = b""
        while chunk := sock.recv(65536):
            torn += chunk
        sock.close()
        assert torn.startswith(b'{"id":2,"status":"ok"')
        assert b"\n" not in torn
        with pytest.raises(protocol.ProtocolError):  # half a frame, not one
            decode_response(torn)

        failpoints.activate("conn.before_send", "torn", count=1)
        with ServiceClient(root=str(workspace), timeout=10) as client:
            with pytest.raises(ServiceUnavailableError, match="closed"):
                client.checkout("inter", [1], inline=True)
        with handle.client() as client:  # the daemon is unharmed
            assert client.checkout("inter", [1], inline=True)["data"] == whole["data"]
