"""Run in an empty directory with commit f170a81 on PYTHONPATH (the last
one that stored ``CVD._membership`` / ``CVD._payloads`` and the data
models' copies of them): one repository with a dataset per data model,
saved once per layout.

    pickle/.orpheus/state.pkl            ORPHSTA1, everything in one pickle
    paged/.orpheus/state.pkl + pages/    ORPHSTA2, ``cvd:*`` / ``model:*``
                                         dict segments beside ``table:*``

``tar czf head_repo.tar.gz pickle paged`` is the checked-in fixture.
Version 3 of every dataset is a two-parent merge; ``partitioned_rlist``
is optimized, so its rows have moved between partitions."""
import pickle

from repro.core.commands import Orpheus
from repro.core.models import DATA_MODELS
from repro.pagestore.store import paged_save
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import StateStore

schema = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))
orpheus = Orpheus()
orpheus.create_user("alice")
orpheus.config("alice")
for name in sorted(DATA_MODELS) + ["partitioned_rlist"]:
    rows = [(f"{name}-k{i}", i) for i in range(8)]
    first = orpheus.init(name, schema, rows, model=name)
    cvd = orpheus.cvd(name)
    second = cvd.commit(rows[2:] + [(f"{name}-extra", 99)], parents=(first,), message="v2", author="alice")
    cvd.commit(rows + [(f"{name}-extra", 99)], parents=(first, second), message="merge", author="alice")
orpheus.optimize("partitioned_rlist")
StateStore("pickle").save_bytes(pickle.dumps(orpheus))
print(paged_save(StateStore("paged"), orpheus))
