"""A CVD holds each record once: its payload, its CSV line (less the
line end) and its JSON fragment sit in slots indexed by its rid
(``repro.relational.arrays.Slots``); each judged line maps, as the very
string its slot holds, to the lowest judged rid whose line it is, and a
bitmap marks the judged rids.

* counted memory — 3,000 rows x 100 versions, every version pulled once
  as a file and once inline, every line judged; the partitioned store
  keeps no record map beside the CVD's;
* readers filling one store at once, with no lock, each get what a
  fresh store gives;
* the slots read as the map of their filled slots.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.relational.arrays import Slots
from repro.service import protocol

from tests.core.test_rid_array_costs import history
from tests.service.test_checkout_bytes import in_hand


def sized(*roots) -> int:
    """The bytes of ``roots`` and of everything they hold (dict keys and
    values, list, tuple and set items), each object counted once."""
    seen, todo, total = set(), list(roots), 0
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += obj
    return total


def test_the_record_store_holds_each_record_once():
    """Held in rid-keyed dicts, with each line three times and a set of
    judged rids, these memos took 10.7 MB; in rid-indexed slots, with
    one string per line and a bitmap, they take 5.3 MB. The membership
    memo is the 2.5 MB it was."""
    cvd = history("split_by_rlist", 3000, 100)
    for vid in cvd.versions.vids():
        result = cvd.checkout(vid)
        cvd.lines_of(result.rids, result.rows)
        protocol.encode_rows(result.rids, cvd.json_fragments, in_hand(result))
    line_rids, payloads = cvd.parsed_lines()
    lines, fragments, judged = cvd._lines, cvd.json_fragments, cvd._judged
    assert payloads is cvd._payloads and type(judged) is bytearray
    records = cvd.num_records
    assert len(payloads) == len(lines) == len(fragments) == records == 17_850
    assert all(judged[1 : records + 1]) and not cvd._unjudged
    # The line -> rid map is keyed by the very strings the slots hold.
    assert len(line_rids) == records
    assert all(lines[rid] is line for line, rid in line_rids.items())
    store = (payloads, lines, fragments, line_rids, judged, cvd._shared)
    assert sized(*store) <= 6e6, sized(*store)
    assert sized(cvd._membership) <= 2.6e6


def test_the_partitioned_store_keeps_no_record_map_of_its_own():
    """A migration copies records through the CVD's slots, lent to the
    store as its rid memo is. At 3,000 rows x 100 versions, after a
    migration, the store's own attributes took 5.0 MB while it kept a
    rid -> payload dict of its own (3.2 MB of it); they take 1.8 MB now,
    nearly all of it the rids each partition's data table holds."""
    cvd = history("partitioned_rlist", 3000, 100)
    store = cvd.model
    store.optimize()
    assert store.records_memo is cvd._payloads
    assert len(cvd._payloads) == cvd.num_records == 17_850
    lent = {"database", "data_schema", "_partitions", "rids_memo", "records_memo"}
    own = [value for name, value in vars(store).items() if name not in lent]
    assert not any(
        isinstance(value, dict) and len(value) >= cvd.num_records for value in own
    )
    assert sized(*own) <= 2e6, sized(*own)


def test_readers_filling_one_store_agree():
    """More readers than cores, switching as often as the interpreter
    can, each pull a version to lines and to JSON while the others fill
    the same slots: every answer is what a store filled alone gives."""
    cvd = history("split_by_rlist", 300, 6)
    vids = cvd.versions.vids()
    results = {vid: cvd.checkout(vid) for vid in vids}
    expected = {}
    for vid, result in results.items():
        lines = cvd.lines_of(result.rids, result.rows)
        body = protocol.encode_rows(result.rids, cvd.json_fragments, in_hand(result))
        expected[vid] = (lines, body, cvd.payloads_of(result.rids))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cvd._reset_memo()
            barrier = threading.Barrier(4)
            answers: list[dict] = [{} for _ in range(4)]

            def read(order, out):
                barrier.wait()
                for vid in order:
                    rids = results[vid].rids
                    lines = cvd.lines_of(rids, results[vid].rows if vid % 2 else None)
                    body = protocol.encode_rows(
                        rids, cvd.json_fragments, lambda lack: cvd.payloads_of(lack)
                    )
                    out[vid] = (lines, body, cvd.payloads_of(rids))

            readers = [
                threading.Thread(target=read, args=(vids[n:] + vids[:n], out))
                for n, out in enumerate(answers)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=30)
                assert not reader.is_alive()
            assert all(answer == expected for answer in answers)
            assert list.__len__(cvd._lines) > cvd.num_records  # grown, not shrunk
    finally:
        sys.setswitchinterval(previous)


def test_slots_read_as_the_map_of_their_filled_slots():
    slots = Slots()
    assert slots == {} and not slots and len(slots) == 0
    slots.update({3: "c", 1: "a"})
    slots.put(range(4, 6), ["d", "e"])
    assert slots == {1: "a", 3: "c", 4: "d", 5: "e"} and len(slots) == 4
    assert slots != {1: "a"} and slots.get(2) is None and slots.get(99) is None
    assert list(slots) == [None, "a", None, "c", "d", "e"]
    slots.grow(2)  # room it already has: nothing changes
    assert list.__len__(slots) == 6
    with pytest.raises(IndexError):
        slots[6]
