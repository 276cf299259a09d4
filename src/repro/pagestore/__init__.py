"""Out-of-core paged storage: fixed-size pages, a buffer pool, and the
``ORPHSTA2`` paged state layout.

The pickle-blob state store bounds dataset size by RAM and makes every
save O(total state). This package replaces the physical substrate while
keeping the state store's crash-safety contract:

* :mod:`repro.pagestore.pages` — fixed-size (default 64 KiB),
  checksummed, content-addressed page files under ``.orpheus/pages/``.
  Pages are immutable: a dirty segment writes *new* pages and the old
  ones age out with the backup generations (the ForkBase chunk idiom).
* :mod:`repro.pagestore.codec` — segment encodings: columnar table
  slices with delta-encoded integer columns and rid lists, one
  compressed pickle per segment; the v1 (varint) codecs are decode-only.
* :mod:`repro.pagestore.bufferpool` — a process-wide byte-budgeted LRU
  over page payloads that never evicts a dirty (not yet durable) page.
* :mod:`repro.pagestore.store` — the ``ORPHSTA2`` layout behind
  :class:`repro.resilience.statestore.StateStore`: the object graph is
  split into an eagerly-loaded skeleton plus lazily-faulted segments
  (each physical table's heap as a run of chunks), so ``checkout``
  touches only the pages of the partitions LyreSplit mapped the version
  to, and a save writes only the chunks a commit wrote to.
"""

from repro.pagestore.bufferpool import (  # noqa: F401
    BufferPool,
    get_pool,
    reset_pool,
)
from repro.pagestore.pages import (  # noqa: F401
    DEFAULT_PAGE_BYTES,
    PageCorruptionError,
    page_size,
    pages_dir,
)
from repro.pagestore.store import (  # noqa: F401
    PageStore,
    SegmentRef,
    clean_pagestore,
    migrate_state,
    orphan_pages,
    paged_load,
    paged_save,
)
