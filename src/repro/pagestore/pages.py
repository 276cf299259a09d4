"""Fixed-size, checksummed, content-addressed page files.

A *page* is the unit of disk I/O and buffer-pool residency: a slice of
an encoded segment, at most :func:`page_size` payload bytes, stored as
one file under ``.orpheus/pages/`` named by the SHA-256 of its payload.
Content addressing is what makes write-back both cheap and crash-safe:

* an unchanged page already exists on disk and costs nothing to
  "rewrite" (append-mostly segments share their prefix pages across
  saves);
* a crashed save leaves only *extra* page files, never torn ones — the
  live state keeps referencing the old pages, and recovery deletes the
  orphans (see :func:`repro.pagestore.store.clean_pagestore`).

Each file carries its own header (magic, payload length, digest) so a
bit-flipped or truncated page is detected at fault time rather than
exploding inside a decoder.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

from repro.resilience import fsio

PAGE_MAGIC = b"ORPHPG1\0"
_LEN_STRUCT = struct.Struct(">Q")
_DIGEST_SIZE = hashlib.sha256().digest_size
HEADER_SIZE = len(PAGE_MAGIC) + _LEN_STRUCT.size + _DIGEST_SIZE

#: Default page payload size; override with ``ORPHEUS_PAGE_BYTES``.
DEFAULT_PAGE_BYTES = 64 * 1024
PAGE_BYTES_ENV = "ORPHEUS_PAGE_BYTES"
_MIN_PAGE_BYTES = 4 * 1024

#: Directory under ``.orpheus`` holding page files and the directory.
PAGES_SUBDIR = "pages"
PAGE_SUFFIX = ".pg"

#: Length of the hex page id (half a SHA-256, ample for uniqueness).
PAGE_ID_HEX = 32


class PageCorruptionError(RuntimeError):
    """A page file failed its magic/length/checksum verification."""


def page_size() -> int:
    """Configured page payload bytes (clamped to a sane minimum)."""
    raw = os.environ.get(PAGE_BYTES_ENV, "")
    try:
        value = int(raw) if raw else DEFAULT_PAGE_BYTES
    except ValueError:
        value = DEFAULT_PAGE_BYTES
    return max(value, _MIN_PAGE_BYTES)


def pages_dir(root: str | os.PathLike | None = None) -> Path:
    return Path(root or ".") / ".orpheus" / PAGES_SUBDIR


def page_path(directory: Path, page_id: str) -> Path:
    return directory / (page_id + PAGE_SUFFIX)


def page_id_for(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:PAGE_ID_HEX]


def split_payload(blob: bytes, page_bytes: int | None = None) -> list[bytes]:
    """Slice an encoded segment into page-sized payloads (≥ 1 page —
    an empty segment still gets one empty page so it has an address)."""
    size = page_bytes or page_size()
    if not blob:
        return [b""]
    return [blob[i : i + size] for i in range(0, len(blob), size)]


def write_page(directory: Path, page_id: str, payload: bytes) -> bool:
    """Durably create one page file; returns False when it already
    exists (content addressing: same id ⇒ same bytes)."""
    final = page_path(directory, page_id)
    if final.exists():
        return False
    blob = (
        PAGE_MAGIC
        + _LEN_STRUCT.pack(len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )
    fsio.atomic_write(final, blob, fsync=True)
    return True


def read_page(directory: Path, page_id: str) -> bytes:
    """Read and verify one page's payload."""
    path = page_path(directory, page_id)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise PageCorruptionError(f"missing page file {path.name}")
    return verify_page_blob(blob, name=path.name)


def verify_page_blob(blob: bytes, name: str = "page") -> bytes:
    if not blob.startswith(PAGE_MAGIC):
        raise PageCorruptionError(f"{name}: bad magic")
    if len(blob) < HEADER_SIZE:
        raise PageCorruptionError(
            f"{name}: truncated header ({len(blob)} of {HEADER_SIZE} bytes)"
        )
    offset = len(PAGE_MAGIC)
    (length,) = _LEN_STRUCT.unpack_from(blob, offset)
    offset += _LEN_STRUCT.size
    digest = blob[offset : offset + _DIGEST_SIZE]
    payload = blob[HEADER_SIZE:]
    if len(payload) != length:
        raise PageCorruptionError(
            f"{name}: truncated payload ({len(payload)} of {length} bytes)"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise PageCorruptionError(f"{name}: checksum mismatch")
    return payload


def list_page_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*" + PAGE_SUFFIX))
