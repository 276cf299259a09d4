"""Shared hygiene for the paged-store suite: the buffer pool is
process-global and the layout/page-size knobs are environment
variables, so every test starts from a clean slate."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.pagestore.bufferpool import reset_pool
from repro.pagestore.store import SegmentRef, state_outers
from repro.resilience import failpoints


def newest_segments(root) -> dict[str, SegmentRef]:
    """The segments of the newest state generation that verifies, by key."""
    outer = next(state_outers(root))
    return {
        ref.key: ref for ref in map(SegmentRef.from_tuple, outer["segments"])
    }


@pytest.fixture(autouse=True)
def clean_pagestore_globals(monkeypatch):
    monkeypatch.delenv("ORPHEUS_STATE_LAYOUT", raising=False)
    monkeypatch.delenv("ORPHEUS_PAGE_BYTES", raising=False)
    monkeypatch.delenv("ORPHEUS_BUFFER_BYTES", raising=False)
    failpoints.clear()
    reset_pool()
    yield
    failpoints.clear()
    reset_pool()
    telemetry.reset()
    telemetry.disable()
