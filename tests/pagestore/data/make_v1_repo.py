"""Run with the parent commit (133513a) on PYTHONPATH: a two-dataset
repository saved in the paged layout with v1 segment codecs."""
from repro.core.commands import Orpheus
from repro.pagestore.store import paged_save
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import StateStore

schema = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))
orpheus = Orpheus()
orpheus.create_user("alice")
orpheus.config("alice")
for name in ("ds", "other"):
    rows = [(f"{name}-k{i}", i) for i in range(8)]
    vid = orpheus.init(name, schema, rows, model="split_by_rlist")
    orpheus.cvd(name).commit(rows[2:] + [(f"{name}-extra", 99)], parents=(vid,), message="v2", author="alice")
print(paged_save(StateStore("."), orpheus))
