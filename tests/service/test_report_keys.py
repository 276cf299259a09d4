"""orpheusd's report (``stats_payload()``) has three readers: the
doctor's judge (:func:`~repro.observe.doctor.judge_report`), ``orpheus
top``'s renderer and ``/metrics`` (:func:`~repro.service.metrics.
exposition`). Each reads it through ``.get(key, default)``, so a key
renamed in the report would read as its default and go silent. Here
all three read a live daemon's report through maps that record every
key read, and each key read must be one the report has: none is optional."""

from __future__ import annotations

import copy

from repro.observe.doctor import judge_report
from repro.observe.top import detect_restart, render_frame
from repro.service.metrics import exposition

from .conftest import await_ledger, seed_dataset

#: The three readers, each as a call on a report and the poll before.
READERS = {
    "judge_report": lambda report, _prev: judge_report(report),
    "top": lambda report, prev: (
        detect_restart(prev, report), render_frame(report, prev, 2.0)
    ),
    "exposition": lambda report, _prev: exposition(report),
}


class Recorded(dict):
    """A report block that records, in ``reads``, each key read from it
    by ``get`` or ``[]`` as (path, whether the block has it)."""

    def __init__(self, block: dict, path: tuple, reads: list) -> None:
        super().__init__(
            (key, _recorded(value, path + (key,), reads))
            for key, value in block.items()
        )
        self.path, self.reads = path, reads

    def get(self, key, default=None):
        self.reads.append((self.path + (key,), key in self))
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append((self.path + (key,), key in self))
        return super().__getitem__(key)


def _recorded(value, path: tuple, reads: list):
    if isinstance(value, dict):
        return Recorded(value, path, reads)
    if isinstance(value, list):
        return [_recorded(item, path + ("[]",), reads) for item in value]
    return value


def missing_keys(read, report: dict, prev: dict) -> list[str]:
    """The keys ``read`` reads that ``report`` (or ``prev``) lacks."""
    reads: list = []
    read(Recorded(report, (), reads), Recorded(prev, ("prev",), reads))
    assert reads
    return sorted({".".join(map(str, path)) for path, found in reads if not found})


def test_every_key_the_report_readers_read_is_in_the_report(
    workspace, daemon_factory, tmp_path
):
    seed_dataset(workspace)
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], inline=True)
        client.checkout("inter", [1], file=str(tmp_path / "out.csv"))
        await_ledger(handle, lambda m: m.totals.count >= 2)
        prev = handle.daemon.stats_payload()
        client.checkout("inter", [1], inline=True)
        await_ledger(handle, lambda m: m.totals.count >= 3)
        report = handle.daemon.stats_payload()
    assert report["by_op"] and report["by_dataset"] and report["by_session"]
    missing = {
        name: missing_keys(read, report, prev) for name, read in READERS.items()
    }
    assert missing == {name: [] for name in READERS}
    # A key renamed in the report is a missing read in each reader of it.
    renamed = copy.deepcopy(report)
    renamed["requests"]["failed"] = renamed["requests"].pop("worker_errors")
    for name, read in READERS.items():
        assert missing_keys(read, renamed, prev) == ["requests.worker_errors"], name
