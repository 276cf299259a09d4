"""A record is encoded once for every version that holds it: orpheusd
builds an inline checkout's body by joining the CVD's memoized
per-record JSON fragments (``CVD.json_fragments``).

* counted — a cold inline read of a version right after its parent
  hands the encoder only the records new to the memo, and a merge of
  known versions hands it none;
* a schema-evolving commit empties the memo; a save/load round trip
  carries none;
* readers filling one memo at once produce the same bytes.
"""

from __future__ import annotations

import pickle
import sys
import threading

from repro.resilience.statestore import StateStore
from repro.service import protocol

from tests.service.test_checkout_bytes import in_hand, reference_body
from tests.service.test_write_through import DATASET, write_inputs

ROWS = 20


def count_encoded_rows(monkeypatch) -> list[int]:
    """Spy on the encoder of memo misses: one entry per call, the
    number of rows it was handed."""
    calls: list[int] = []
    real = protocol._fragments

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(protocol, "_fragments", spy)
    return calls


def commit_child(client, root, parent: int, tag: str, schema=None, extra=None) -> int:
    """Pull ``parent``, drop its first row, append two new ones (and,
    with ``extra``, a column of that name), commit."""
    work = root / "work.csv"
    client.checkout(DATASET, [parent], file=str(work))
    header, _dropped, *lines = work.read_text().splitlines()
    lines += [f"{tag}a,1", f"{tag}b,2"]
    if extra:
        header += f",{extra}"
        lines = [f"{line},x" for line in lines]
    work.write_text("\n".join([header, *lines]) + "\n")
    return client.commit(
        DATASET, file=str(work), message=tag, schema=schema, parents=[parent]
    )["version"]


def expected_rows(cvd, vids) -> list[list]:
    return [list(row) for row in cvd.checkout(vids).rows]


def test_a_read_after_its_parent_encodes_only_the_new_records(
    workspace, daemon_factory, monkeypatch
):
    data, schema = write_inputs(workspace, rows=ROWS)
    encoded = count_encoded_rows(monkeypatch)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            for parent, tag in ((1, "p"), (2, "q"), (3, "r")):
                commit_child(client, workspace, parent, tag)
            client.flush_cache()
            cvd = handle.daemon.orpheus.cvd(DATASET)
            assert cvd.json_fragments == {}  # file checkouts encode no JSON
            for vid, fresh in ((1, ROWS), (2, 2), (3, 2), (4, 2)):
                data = client.checkout(DATASET, [vid], inline=True)
                assert data["cached"] is False
                assert encoded == [fresh], vid
                assert data["data"] == expected_rows(cvd, vid)
                encoded.clear()
            assert len(cvd.json_fragments) == cvd.num_records == ROWS + 6
            # Every record of a merge is known: the body is all joins.
            data = client.checkout(DATASET, [4, 1], inline=True)
            assert data["cached"] is False and encoded == []
            assert data["data"] == expected_rows(cvd, [4, 1])

            # A commit admits its version without a body; its first
            # inline read is a hit that encodes only the new records.
            vid = commit_child(client, workspace, 4, "s")
            data = client.checkout(DATASET, [vid], inline=True)
            assert data["cached"] is True and encoded == [2]
            assert data["data"] == expected_rows(cvd, vid)


def test_schema_change_empties_the_memo_and_no_state_carries_it(
    workspace, daemon_factory, monkeypatch
):
    data, schema = write_inputs(workspace, rows=ROWS)
    widened = workspace / "widened.csv"
    widened.write_text("key,text\nvalue,integer\nnote,text\nprimary_key,key\n")
    encoded = count_encoded_rows(monkeypatch)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            client.checkout(DATASET, [1], inline=True)
            orpheus = handle.daemon.orpheus
            cvd = orpheus.cvd(DATASET)
            assert len(cvd.json_fragments) == ROWS

            # Saved state carries no memo, pickled or paged.
            assert "json_fragments" not in cvd.__getstate__()
            assert pickle.loads(pickle.dumps(cvd)).json_fragments == {}
            for layout in ("pickle", "paged"):
                StateStore(workspace).save(orpheus, prefer=layout)
                loaded, _info = StateStore(workspace).load(warn=None)
                assert loaded.cvd(DATASET).json_fragments == {}, layout

            # The new column changes every record's JSON.
            vid = commit_child(
                client, workspace, 1, "w", schema=str(widened), extra="note"
            )
            assert cvd.schema.column_names == ["key", "value", "note"]
            assert cvd.json_fragments == {}
            encoded.clear()
            data = client.checkout(DATASET, [1], inline=True)
            assert encoded == [ROWS]
            assert data["data"] == expected_rows(cvd, 1)
            assert data["data"][0][-1] is None
            # Every row of the child has a note: all its records are new.
            data = client.checkout(DATASET, [vid], inline=True)
            assert encoded == [ROWS, ROWS + 1]
            assert data["data"] == expected_rows(cvd, vid)


def test_concurrent_readers_filling_one_memo_agree(workspace, daemon_factory):
    data, schema = write_inputs(workspace, rows=ROWS)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            for parent, tag in ((1, "p"), (1, "q"), (2, "r")):
                commit_child(client, workspace, parent, tag)
        cvd = handle.daemon.orpheus.cvd(DATASET)
    results = {vid: cvd.checkout(vid) for vid in (1, 2, 3, 4)}
    expected = {
        vid: reference_body(result.rows) for vid, result in results.items()
    }
    # More readers than cores, switching as often as the interpreter
    # can, so the fills interleave.
    orders = ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3], [3, 1, 4, 2])
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cvd.json_fragments.clear()
            barrier = threading.Barrier(len(orders))
            bodies: list[dict] = [{} for _ in orders]

            def read(order, out):
                barrier.wait()
                for vid in order:
                    result = results[vid]
                    out[vid] = protocol.encode_rows(
                        result.rids, cvd.json_fragments, in_hand(result)
                    )

            readers = [
                threading.Thread(target=read, args=(order, out))
                for order, out in zip(orders, bodies)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10)
                assert not reader.is_alive()
            assert all(body == expected for body in bodies)
    finally:
        sys.setswitchinterval(previous)
