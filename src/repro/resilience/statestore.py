"""The transactional state store: checksummed, crash-safe ``state.pkl``.

The repository's whole in-memory engine persists as one pickle. The bare
``pickle.load(open(...))`` the CLI started with turns a truncated or
bit-flipped file into an unhandled traceback and leaves no second copy
to fall back to. This store replaces it with:

* **Checksummed container format** — an 8-byte magic, the payload
  length, and a SHA-256 digest precede the pickle payload, so
  truncation and corruption are *detected* rather than exploding inside
  the unpickler. Legacy bare-pickle files (pre-upgrade repositories)
  still load; the next save rewrites them in container format.
* **write-temp / fsync / rename / fsync-dir** — the live file is only
  ever replaced atomically by a fully-written, fully-synced temp file.
* **Rotating backup generations** — before each replace, the current
  file is hard-linked to ``state.pkl.bak`` (the previous ``.bak``
  rotating to ``.bak.1``), so the last two known-good states survive.
* **Fallback load path** — a corrupt live file falls back through the
  backup generations with a clear warning; only when *every* candidate
  is corrupt does loading raise :class:`StateCorruptionError` with an
  actionable message.

Failpoints (``statestore.after_temp_write`` / ``before_replace`` /
``after_replace``) bracket the commit sequence for crash testing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.resilience import failpoints, fsio

MAGIC = b"ORPHSTA1"
#: Paged-layout container: same header, but the payload is a pagestore
#: outer document (skeleton + segment refs) instead of the full pickle.
MAGIC2 = b"ORPHSTA2"
_LEN_STRUCT = struct.Struct(">Q")
HEADER_SIZE = len(MAGIC) + _LEN_STRUCT.size + hashlib.sha256().digest_size

#: Force the layout ``save`` writes: ``paged`` or ``pickle``. Unset =
#: the writer's rule: orpheusd writes paged (upgrading a pickle
#: repository at its first save), the CLI keeps whatever layout the
#: repository already uses.
LAYOUT_ENV = "ORPHEUS_STATE_LAYOUT"

STATE_DIR = ".orpheus"
STATE_FILE = "state.pkl"
#: Backup generations, newest first.
BACKUP_SUFFIXES = (".bak", ".bak.1")


class StateCorruptionError(RuntimeError):
    """The state file (and every backup generation) failed verification."""


@dataclass
class LoadInfo:
    """How a load resolved: which file served it, what was skipped."""

    source: str | None = None  # filename that served the load, None = fresh
    legacy: bool = False  # loaded from a pre-container bare pickle
    fallback: bool = False  # a backup served instead of the live file
    paged: bool = False  # loaded from the ORPHSTA2 paged layout
    warnings: list[str] = field(default_factory=list)


def _default_warn(message: str) -> None:
    sys.stderr.write(f"warning: {message}\n")


class StateStore:
    """Crash-safe persistence for one repository's pickled state."""

    def __init__(self, root: str | None = None, filename: str = STATE_FILE):
        self.dir = Path(root or ".") / STATE_DIR
        self.path = self.dir / filename

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def backup_paths(self) -> list[Path]:
        return [
            self.path.with_name(self.path.name + suffix)
            for suffix in BACKUP_SUFFIXES
        ]

    def stray_temps(self) -> list[Path]:
        """Leftover ``state.pkl.*.tmp`` files from interrupted writes."""
        return fsio.stray_temps(self.dir, self.path.name)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save_layout(self, prefer: str | None = None) -> str:
        """Layout the next ``save`` writes: the ``ORPHEUS_STATE_LAYOUT``
        override if set; else ``prefer``, the writer's own layout when
        it has one (orpheusd's is ``paged``, so its first save upgrades
        a pickle repository, one way); else whatever the live file
        already uses (fresh repositories default to pickle)."""
        env = os.environ.get(LAYOUT_ENV, "").strip().lower()
        if env in ("paged", "pickle"):
            return env
        if prefer is not None:
            return prefer
        try:
            with open(self.path, "rb") as handle:
                if handle.read(len(MAGIC2)) == MAGIC2:
                    return "paged"
        except OSError:
            pass
        return "pickle"

    def save(self, obj: object, prefer: str | None = None) -> None:
        if self.save_layout(prefer) == "paged":
            from repro.pagestore.store import paged_save

            paged_save(self, obj)
        else:
            self.save_bytes(pickle.dumps(obj))

    def save_bytes(self, payload: bytes, magic: bytes = MAGIC) -> None:
        """Durably replace the state file with ``payload``.

        Sequence: temp write + fsync → backup rotation (hard links, so
        the live name never vanishes) → atomic rename → directory fsync.
        A crash at any point leaves either the old state or the new
        state fully intact, never a torn file.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        blob = (
            magic
            + _LEN_STRUCT.pack(len(payload))
            + hashlib.sha256(payload).digest()
            + payload
        )
        fd, tmp_name = fsio.make_temp(self.path)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            failpoints.fire("statestore.after_temp_write")
            self._rotate_backups()
            failpoints.fire("statestore.before_replace")
            os.replace(tmp_name, self.path)
            failpoints.fire("statestore.after_replace")
            fsio.fsync_dir(self.dir)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        telemetry.count("resilience.state.saves")
        # The write side of ``storage.io.state_bytes_read``: the whole
        # container on the pickle layout, the skeleton on the paged one
        # (its pages count as ``storage.io.page_bytes_written``).
        telemetry.count("storage.io.state_bytes_written", len(blob))

    def _rotate_backups(self) -> None:
        """Shift ``state.pkl`` → ``.bak`` → ``.bak.1`` without ever
        removing the live name (hard link, then rename over the old
        backup)."""
        if not self.path.exists():
            return
        bak, bak1 = self.backup_paths
        if bak.exists():
            os.replace(bak, bak1)
        link_tmp = self.path.with_name(self.path.name + ".bak.tmp")
        try:
            link_tmp.unlink(missing_ok=True)
            os.link(self.path, link_tmp)
        except OSError:
            # Filesystem without hard links: fall back to a copy.
            link_tmp.write_bytes(self.path.read_bytes())
        os.replace(link_tmp, bak)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, warn=_default_warn) -> tuple[object | None, LoadInfo]:
        """Load the newest verifiable state.

        Returns ``(obj, info)``; ``obj`` is ``None`` when no state file
        exists at all (a fresh repository). Falls back through the
        backup generations on corruption, calling ``warn`` for each
        skipped candidate. Raises :class:`StateCorruptionError` only
        when files exist but none verifies.
        """
        info = LoadInfo()
        candidates = [self.path, *self.backup_paths]
        existed = False
        for candidate in candidates:
            if not candidate.exists():
                continue
            existed = True
            paged = False
            try:
                blob = candidate.read_bytes()
                payload, legacy = self.verify_blob(blob)
                paged = blob.startswith(MAGIC2)
                if paged:
                    from repro.pagestore.store import paged_load

                    obj = paged_load(
                        self, payload, live=candidate == self.path
                    )
                else:
                    obj = pickle.loads(payload)
            except StateCorruptionError as error:
                telemetry.count("resilience.state.corruption_detected")
                info.warnings.append(f"{candidate.name}: {error}")
                if warn is not None:
                    warn(f"state file {candidate.name} is corrupt: {error}")
                continue
            except Exception as error:  # unpicklable payload
                telemetry.count("resilience.state.corruption_detected")
                info.warnings.append(
                    f"{candidate.name}: unpicklable ({type(error).__name__}: "
                    f"{error})"
                )
                if warn is not None:
                    warn(
                        f"state file {candidate.name} failed to unpickle: "
                        f"{error}"
                    )
                continue
            info.source = candidate.name
            info.legacy = legacy
            info.fallback = candidate is not self.path
            info.paged = paged
            # Physical read footprint of serving this load: the whole
            # container for the pickle layout, just the skeleton for
            # the paged one (segments charge storage.io.page_* as they
            # fault). The gap is the layouts' read amplification.
            telemetry.count("storage.io.state_bytes_read", len(blob))
            if paged:
                telemetry.count("resilience.state.paged_loads")
            if legacy:
                telemetry.count("resilience.state.legacy_loads")
            if info.fallback:
                telemetry.count("resilience.state.backup_restores")
                if warn is not None:
                    warn(
                        f"restored repository state from backup "
                        f"{candidate.name}; the most recent operation(s) "
                        f"may be lost — check `orpheus log --ops`"
                    )
            return obj, info
        if existed:
            raise StateCorruptionError(
                f"{self.path} and all backup generations are corrupt "
                f"({'; '.join(info.warnings)}). Restore {self.path.name} "
                f"from an external copy, or run `orpheus recover` for a "
                f"report and re-init from the operation journal."
            )
        return None, info

    @staticmethod
    def verify_blob(blob: bytes) -> tuple[bytes, bool]:
        """Return ``(payload, legacy)`` or raise :class:`StateCorruptionError`.

        ``legacy`` is True for pre-container bare-pickle files, which
        carry no checksum (their integrity is only proven by a
        successful unpickle in the caller).
        """
        if not blob:
            raise StateCorruptionError("empty file")
        if not (blob.startswith(MAGIC) or blob.startswith(MAGIC2)):
            if len(blob) < len(MAGIC) and (
                MAGIC.startswith(blob) or MAGIC2.startswith(blob)
            ):
                # Shorter than the magic and a strict prefix of it: a
                # truncated container, not a legacy pickle.
                raise StateCorruptionError("truncated header")
            return blob, True  # legacy bare pickle
        if len(blob) < HEADER_SIZE:
            raise StateCorruptionError(
                f"truncated header ({len(blob)} of {HEADER_SIZE} bytes)"
            )
        offset = len(MAGIC)
        (length,) = _LEN_STRUCT.unpack_from(blob, offset)
        offset += _LEN_STRUCT.size
        digest = blob[offset : offset + hashlib.sha256().digest_size]
        payload = blob[HEADER_SIZE:]
        if len(payload) != length:
            raise StateCorruptionError(
                f"truncated payload ({len(payload)} of {length} bytes)"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise StateCorruptionError("checksum mismatch (corrupted bytes)")
        return payload, False

    # ------------------------------------------------------------------
    # Integrity report (for `orpheus doctor` / `orpheus recover`)
    # ------------------------------------------------------------------
    def integrity(self) -> dict:
        """Verify every on-disk generation without unpickling anything."""
        report: dict = {
            "path": str(self.path),
            "status": "missing",
            "detail": "",
            "bytes": 0,
            "layout": None,
            "backups": [],
            "stray_temps": [str(p.name) for p in self.stray_temps()],
        }
        if self.path.exists():
            blob = self.path.read_bytes()
            report["bytes"] = len(blob)
            try:
                _payload, legacy = self.verify_blob(blob)
                report["status"] = "legacy" if legacy else "ok"
                report["layout"] = (
                    "legacy"
                    if legacy
                    else "paged" if blob.startswith(MAGIC2) else "pickle"
                )
                if legacy:
                    report["detail"] = (
                        "pre-checksum format; next save upgrades it"
                    )
            except StateCorruptionError as error:
                report["status"] = "corrupt"
                report["detail"] = str(error)
        for backup in self.backup_paths:
            if not backup.exists():
                continue
            blob = backup.read_bytes()
            entry = {"name": backup.name, "bytes": len(blob), "ok": True}
            try:
                self.verify_blob(blob)
            except StateCorruptionError as error:
                entry["ok"] = False
                entry["detail"] = str(error)
            report["backups"].append(entry)
        return report
