"""``orpheus top`` — a live terminal dashboard for a running daemon.

Renders the daemon's ``stats`` protocol payload: per-op throughput
(rates are deltas between consecutive polls), latency percentiles with
the queue-wait/execute split, queue depths, cache efficiency, and the
busiest sessions — the glanceable answer to "what is the daemon doing
right now", without log spelunking. A scan table shows the rows and
bytes each dataset's requests scanned (``orpheus heat`` has the heat,
partition and amplification analysis).

This module only renders: the CLI's poll loop (``repro.cli``) owns
the daemon connection and hands each payload to :func:`render_frame`.
"""

from __future__ import annotations


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "-"
    ms = seconds * 1000.0
    if ms >= 1000:
        return f"{ms / 1000.0:.2f}s"
    if ms >= 100:
        return f"{ms:.0f}ms"
    return f"{ms:.1f}ms"


def _fmt_bytes(count) -> str:
    value = float(count or 0)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GB"


def _rate(current: int, previous: int, interval: float) -> str:
    if interval <= 0:
        return "-"
    return f"{max(0, current - previous) / interval:.1f}/s"


def detect_restart(prev: dict | None, stats: dict) -> bool:
    """True when ``stats`` comes from a different daemon incarnation
    than ``prev`` — the boot id changed, or the monotonic request total
    went backwards (an older daemon without boot ids restarted). Rates
    computed across a restart are garbage; the caller must discard
    ``prev`` so the dashboard restarts its deltas from zero."""
    if not prev:
        return False
    prev_boot = prev.get("server", {}).get("boot_id")
    boot = stats.get("server", {}).get("boot_id")
    if prev_boot and boot and prev_boot != boot:
        return True
    prev_total = prev.get("requests", {}).get("total", 0)
    return stats.get("requests", {}).get("total", 0) < prev_total


def render_frame(
    stats: dict,
    prev: dict | None = None,
    interval: float = 2.0,
    restarted: bool = False,
) -> str:
    """One dashboard frame from a ``stats`` payload (and the previous
    poll's payload, for rates). ``restarted=True`` flags that the
    daemon was restarted since the last poll (pass ``prev=None`` with
    it — the old counters no longer relate to these)."""
    prev = prev or {}
    server = stats.get("server", {})
    requests = stats.get("requests", {})
    prev_requests = prev.get("requests", {})
    scheduler = stats.get("scheduler", {})
    cache = stats.get("cache", {})
    sessions = stats.get("sessions", {})

    lines = [
        (
            f"orpheusd pid {server.get('pid', '?')} · "
            f"uptime {stats.get('uptime_s', 0):.0f}s · "
            f"{'DRAINING' if server.get('draining') else 'serving'}"
            + (" · RESTARTED (rates reset)" if restarted else "")
        ),
        (
            f"requests {requests.get('total', 0)} "
            f"({_rate(requests.get('total', 0), prev_requests.get('total', 0), interval)})"
            f" · errors {requests.get('errors', 0)}"
            f" · busy {requests.get('busy', 0)}"
            f" · slow {requests.get('slow', 0)}"
            + (
                f" (over {server['slow_ms']:g}ms)"
                if server.get("slow_ms") is not None
                else ""
            )
        ),
        (
            f"queues  read {scheduler.get('read_queue_depth', 0)}"
            f"/{scheduler.get('read_queue_capacity', '?')}"
            f"  write {scheduler.get('write_queue_depth', 0)}"
            f"/{scheduler.get('write_queue_capacity', '?')}"
            f"  shed {scheduler.get('shed_reads', 0)}r"
            f"/{scheduler.get('shed_writes', 0)}w"
        ),
        (
            f"cache   {cache.get('entries', 0)} entries · "
            f"{_fmt_bytes(cache.get('bytes', 0))} of "
            f"{_fmt_bytes(cache.get('budget_bytes', 0))} · "
            f"hit {cache.get('hit_rate', 0.0):.0%} · "
            f"evictions {cache.get('evictions', 0)}"
        ),
        "",
        (
            f"{'op':<12} {'count':>7} {'rate':>8} {'p50':>8} {'p95':>8}"
            f" {'p99':>8} {'queue-p95':>10} {'exec-p95':>9} {'busy':>5}"
        ),
    ]
    prev_by_op = prev.get("by_op", {})
    for op, op_stats in sorted(
        stats.get("by_op", {}).items(),
        key=lambda item: -item[1].get("count", 0),
    ):
        latency = op_stats.get("latency", {})
        phases = op_stats.get("phases", {})
        lines.append(
            f"{op:<12} {op_stats.get('count', 0):>7} "
            f"{_rate(op_stats.get('count', 0), prev_by_op.get(op, {}).get('count', 0), interval):>8} "
            f"{_fmt_ms(latency.get('p50_s')):>8} "
            f"{_fmt_ms(latency.get('p95_s')):>8} "
            f"{_fmt_ms(latency.get('p99_s')):>8} "
            f"{_fmt_ms(phases.get('queue_wait', {}).get('p95_s')):>10} "
            f"{_fmt_ms(phases.get('execute', {}).get('p95_s')):>9} "
            f"{op_stats.get('busy', 0):>5}"
        )
    scanned = {
        name: entry
        for name, entry in stats.get("by_dataset", {}).items()
        if entry.get("rows_scanned") or entry.get("bytes_scanned")
    }
    if scanned:
        lines.append("")
        lines.append(
            f"{'dataset':<16} {'count':>7} {'scan-rows':>10}"
            f" {'scan-bytes':>11}"
        )
        busiest = sorted(
            scanned.items(), key=lambda item: -item[1]["rows_scanned"]
        )[:10]
        for name, entry in busiest:
            lines.append(
                f"{name:<16} {entry.get('count', 0):>7} "
                f"{entry['rows_scanned']:>10} "
                f"{_fmt_bytes(entry['bytes_scanned']):>11}"
            )
    by_session = stats.get("by_session", {})
    if by_session:
        lines.append("")
        lines.append(
            f"{'session':<9} {'user':<12} {'count':>7} {'rate':>8}"
            f" {'busy':>5} {'last op':<10}"
        )
        prev_sessions = prev.get("by_session", {})
        busiest = sorted(
            by_session.items(),
            key=lambda item: -item[1].get("count", 0),
        )[:10]
        active = {
            str(s.get("session_id")): True
            for s in sessions.get("sessions", [])
        }
        for sid, entry in busiest:
            marker = "*" if active.get(sid) else " "
            lines.append(
                f"#{sid:<7}{marker} {entry.get('user') or '-':<12} "
                f"{entry.get('count', 0):>7} "
                f"{_rate(entry.get('count', 0), prev_sessions.get(sid, {}).get('count', 0), interval):>8} "
                f"{entry.get('busy', 0):>5} {entry.get('last_op', '-'):<10}"
            )
        lines.append("(* = session currently connected)")
    return "\n".join(lines) + "\n"
