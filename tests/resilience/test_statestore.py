"""Transactional state store: checksums, backup rotation, fallbacks."""

from __future__ import annotations

import pickle

import pytest

from repro.resilience.statestore import (
    HEADER_SIZE,
    MAGIC,
    StateCorruptionError,
    StateStore,
)


@pytest.fixture
def store(tmp_path):
    return StateStore(tmp_path)


def collect_warnings():
    warnings: list[str] = []
    return warnings, warnings.append


class TestRoundtrip:
    def test_save_then_load(self, store):
        store.save({"graph": [1, 2, 3]})
        obj, info = store.load()
        assert obj == {"graph": [1, 2, 3]}
        assert info.source == "state.pkl"
        assert not info.fallback and not info.legacy

    def test_missing_file_loads_none(self, store):
        obj, info = store.load()
        assert obj is None
        assert info.source is None

    def test_container_format_on_disk(self, store):
        store.save("payload")
        blob = store.path.read_bytes()
        assert blob.startswith(MAGIC)
        assert len(blob) > HEADER_SIZE

    def test_legacy_bare_pickle_still_loads(self, store):
        store.dir.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(pickle.dumps({"old": True}))
        obj, info = store.load()
        assert obj == {"old": True}
        assert info.legacy

    def test_save_upgrades_legacy(self, store):
        store.dir.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(pickle.dumps("v0"))
        store.save("v1")
        _obj, info = store.load()
        assert not info.legacy


class TestBackupRotation:
    def test_generations_rotate(self, store):
        for value in ("g1", "g2", "g3"):
            store.save(value)
        bak, bak1 = store.backup_paths
        assert pickle.loads(StateStore.verify_blob(bak.read_bytes())[0]) == "g2"
        assert pickle.loads(StateStore.verify_blob(bak1.read_bytes())[0]) == "g1"

    def test_first_save_has_no_backup(self, store):
        store.save("only")
        assert not any(p.exists() for p in store.backup_paths)


class TestCorruption:
    def test_truncated_file_falls_back(self, store):
        store.save("old")
        store.save("new")
        blob = store.path.read_bytes()
        store.path.write_bytes(blob[: len(blob) // 2])
        warnings, warn = collect_warnings()
        obj, info = store.load(warn=warn)
        assert obj == "old"
        assert info.fallback
        assert any("corrupt" in w for w in warnings)
        assert any("backup" in w for w in warnings)

    def test_bit_flip_falls_back(self, store):
        store.save("old")
        store.save("new")
        blob = bytearray(store.path.read_bytes())
        blob[-1] ^= 0xFF
        store.path.write_bytes(bytes(blob))
        obj, info = store.load(warn=None)
        assert obj == "old"
        assert info.fallback

    def test_empty_file_falls_back(self, store):
        store.save("old")
        store.save("new")
        store.path.write_bytes(b"")
        obj, _info = store.load(warn=None)
        assert obj == "old"

    def test_all_generations_corrupt_raises_actionable(self, store):
        store.save("a")
        store.save("b")
        store.save("c")
        for path in (store.path, *store.backup_paths):
            path.write_bytes(b"garbage that is not a pickle")
        with pytest.raises(StateCorruptionError) as excinfo:
            store.load(warn=None)
        message = str(excinfo.value)
        assert "orpheus recover" in message
        assert "state.pkl" in message

    def test_corrupt_with_no_backup_raises(self, store):
        store.save("only")
        store.path.write_bytes(b"\x00" * 10)
        with pytest.raises(StateCorruptionError):
            store.load(warn=None)

    def test_truncated_magic_is_corrupt_not_legacy(self, store):
        store.dir.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(MAGIC[:4])
        with pytest.raises(StateCorruptionError, match="truncated"):
            store.load(warn=None)


class TestVerifyBlob:
    def test_truncated_payload_detected(self):
        import hashlib
        import struct

        payload = pickle.dumps([1, 2, 3])
        blob = (
            MAGIC
            + struct.pack(">Q", len(payload))
            + hashlib.sha256(payload).digest()
            + payload[:-3]
        )
        with pytest.raises(StateCorruptionError, match="truncated"):
            StateStore.verify_blob(blob)

    def test_checksum_mismatch_detected(self):
        import hashlib
        import struct

        payload = pickle.dumps("x")
        tampered = payload[:-1] + bytes([payload[-1] ^ 1])
        blob = (
            MAGIC
            + struct.pack(">Q", len(tampered))
            + hashlib.sha256(payload).digest()
            + tampered
        )
        with pytest.raises(StateCorruptionError, match="checksum"):
            StateStore.verify_blob(blob)


class TestStrayTemps:
    def test_only_the_state_files_temps_are_listed(self, store):
        store.save("x")
        stray = store.dir / "state.pkl.abc123.tmp"
        stray.write_bytes(b"partial")
        (store.dir / "telemetry.json.abc123.tmp").write_bytes(b"partial")
        assert store.stray_temps() == [stray]


class TestIntegrity:
    def test_missing(self, store):
        assert store.integrity()["status"] == "missing"

    def test_ok_with_backups(self, store):
        store.save("a")
        store.save("b")
        report = store.integrity()
        assert report["status"] == "ok"
        assert [b["ok"] for b in report["backups"]] == [True]

    def test_corrupt_live_verified_backup(self, store):
        store.save("a")
        store.save("b")
        store.path.write_bytes(MAGIC + b"\x00\x01")  # torn container
        report = store.integrity()
        assert report["status"] == "corrupt"
        assert report["backups"][0]["ok"]

    def test_legacy(self, store):
        store.dir.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(pickle.dumps("old"))
        assert store.integrity()["status"] == "legacy"
