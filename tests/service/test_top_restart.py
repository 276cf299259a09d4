"""``orpheus top`` across a daemon restart: counter resets must be
detected and rates clamped, never rendered as garbage deltas."""

from __future__ import annotations


from repro.observe.top import _rate, detect_restart, render_frame


def _stats(total: int, boot_id: str | None = None) -> dict:
    server = {"pid": 1}
    if boot_id:
        server["boot_id"] = boot_id
    return {
        "server": server,
        "uptime_s": 5.0,
        "requests": {"total": total, "errors": 0, "busy": 0, "slow": 0},
        "by_op": {
            "checkout": {"count": total, "latency": {}, "phases": {}}
        },
    }


def test_detect_restart_on_boot_id_change():
    assert detect_restart(_stats(100, "aaaa"), _stats(5, "bbbb"))
    assert not detect_restart(_stats(100, "aaaa"), _stats(120, "aaaa"))


def test_detect_restart_on_counter_regression_without_boot_id():
    # Older daemons have no boot id: the monotonic total going
    # backwards is the only restart signal.
    assert detect_restart(_stats(100), _stats(5))
    assert not detect_restart(_stats(100), _stats(100))
    assert not detect_restart(_stats(100), _stats(150))


def test_detect_restart_no_previous_sample():
    assert not detect_restart(None, _stats(5, "aaaa"))
    assert not detect_restart({}, _stats(5, "aaaa"))


def test_rate_clamps_negative_deltas():
    assert _rate(5, 100, 2.0) == "0.0/s"
    assert _rate(100, 0, 2.0) == "50.0/s"
    assert _rate(1, 0, 0.0) == "-"


def test_render_frame_flags_restart_and_resets_rates():
    prev = _stats(1000, "aaaa")
    current = _stats(3, "bbbb")
    assert detect_restart(prev, current)
    # The CLI's poll loop passes prev=None after detection; the frame
    # must flag the restart and show fresh (zero-based) rates.
    frame = render_frame(current, None, 2.0, restarted=True)
    assert "RESTARTED" in frame
    assert "-" not in frame.splitlines()[0][:10]  # header intact
    # Rates restart from zero: 3 requests in 2 s, and none of them is
    # a delta against the pre-restart sample (which clamps to 0.0/s).
    assert "requests 3 (1.5/s)" in frame
    checkout = next(
        line for line in frame.splitlines() if line.startswith("checkout")
    )
    assert checkout.split()[:3] == ["checkout", "3", "1.5/s"]
    assert "0.0/s" not in frame
    plain = render_frame(current, prev, 2.0)
    assert "RESTARTED" not in plain


def test_render_frame_negative_delta_still_clamped():
    # Even if a caller forgets to discard prev, the rate helper
    # clamps: no negative rates ever reach the screen.
    frame = render_frame(_stats(3, "bbbb"), _stats(1000, "aaaa"), 2.0)
    assert "-0" not in frame
    assert "0.0/s" in frame


def test_render_frame_has_no_page_residency_line():
    """No page is kept in memory, so the frame shows no residency,
    whatever page-read counts the report carries."""
    counted = {**_stats(3, "aaaa"), "buffer_pool": {"faults": 7, "hits": 0}}
    frame = render_frame(counted)
    assert not [line for line in frame.splitlines() if line.startswith("pages")]
    assert frame == render_frame(_stats(3, "aaaa"))
