"""The page-read counts (:class:`~repro.pagestore.store.PageReads`) under
their old buffer-pool names, kept only until ``benchmarks/e2e`` reads
them by their own."""

from repro.pagestore.store import page_reads as get_pool  # noqa: F401
from repro.pagestore.store import reset_page_reads as reset_pool  # noqa: F401
