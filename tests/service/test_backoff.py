"""Client-side fault tolerance units: the retry loop's jittered-backoff
schedule and the env-configured deadline budget."""

import random

import pytest

from repro.service.client import (
    CLIENT_DEADLINE_ENV,
    client_deadline_ms,
    jittered_backoff,
)


class TestJitteredBackoff:
    def test_grows_exponentially_up_to_cap(self):
        rng = random.Random(7)
        for attempt in range(10):
            delay = jittered_backoff(0.1, attempt, cap=2.0, rng=rng)
            assert 0 < delay <= 2.0

    def test_jitter_never_collapses_to_zero(self):
        class ZeroRng:
            def random(self):
                return 0.0

        assert jittered_backoff(1.0, 0, rng=ZeroRng()) == pytest.approx(
            1.0 * 0.05
        )


class TestClientDeadlineEnv:
    def test_unset_means_no_budget(self, monkeypatch):
        monkeypatch.delenv(CLIENT_DEADLINE_ENV, raising=False)
        assert client_deadline_ms() is None

    def test_value_parsed(self, monkeypatch):
        monkeypatch.setenv(CLIENT_DEADLINE_ENV, "1500")
        assert client_deadline_ms() == 1500.0

    def test_garbage_and_nonpositive_ignored(self, monkeypatch):
        monkeypatch.setenv(CLIENT_DEADLINE_ENV, "soon")
        assert client_deadline_ms() is None
        monkeypatch.setenv(CLIENT_DEADLINE_ENV, "-5")
        assert client_deadline_ms() is None
