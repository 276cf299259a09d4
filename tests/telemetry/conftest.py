"""Telemetry tests mutate process-global state (the registry and the
clock); this fixture guarantees each test starts clean and leaves no
trace for the rest of the suite."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def clean_telemetry():
    was_enabled = telemetry.is_enabled()
    telemetry.reset()
    telemetry.set_clock(None)
    yield
    telemetry.reset()
    telemetry.set_clock(None)
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()
