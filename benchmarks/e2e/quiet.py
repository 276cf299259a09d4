"""Keep hypervisor CPU steal out of the measurement.

The benchmark box is a 2-vCPU VM. Its neighbours occasionally take the
physical cores for minutes at a time (``steal`` in ``/proc/stat`` jumps
from ~2 % to over 50 %), and every timing taken meanwhile reads 2–3×
high — three such runs in a set of ten wreck the set's quartiles. The
program under test cannot cause or cure that, so the harness holds a
measurement until the box is quiet and re-measures a pass that was
stolen from. Both are bounded per run, and by a budget kept in the
scratch directory across the runs of one checkout, so a box that is
never quiet slows the benchmark by a fixed amount, not without limit.
"""

from __future__ import annotations

import os
import sys
import time

#: A window or a pass with more than this share of CPU time stolen is
#: not quiet. The idle box reads 0.02.
STEAL_LIMIT = 0.10
WINDOW_S = 0.25
#: Longest hold, and number of re-measurements, within one run.
RUN_HOLD_S = 30.0
RUN_RETRIES = 1
#: Total seconds all runs in one checkout may spend holding or on
#: discarded passes.
CHECKOUT_BUDGET_S = 900.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, all)`` clock ticks since boot, over every CPU."""
    try:
        with open("/proc/stat") as handle:
            values = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    elapsed = after[1] - before[1]
    return (after[0] - before[0]) / elapsed if elapsed > 0 else 0.0


class QuietGate:
    """One run's view of the checkout-wide hold budget."""

    def __init__(self, work_dir: str) -> None:
        self.budget_path = os.path.join(work_dir, "quiet_budget")
        self.held_s = 0.0
        self.retries = 0

    def _spent(self) -> float:
        try:
            with open(self.budget_path) as handle:
                return float(handle.read())
        except (OSError, ValueError):
            return 0.0

    def _charge(self, seconds: float) -> None:
        spent = self._spent() + seconds
        with open(self.budget_path, "w") as handle:
            handle.write(f"{spent:.3f}\n")

    def hold(self) -> None:
        """Return once a sampling window is quiet (or the hold budget,
        per run or per checkout, is used up)."""
        while True:
            before = cpu_ticks()
            time.sleep(WINDOW_S)
            stolen = steal_frac(before, cpu_ticks())
            if stolen <= STEAL_LIMIT:
                return
            if self.held_s >= RUN_HOLD_S or self._spent() >= CHECKOUT_BUDGET_S:
                sys.stderr.write(
                    f"warning: measuring with {stolen:.0%} of CPU time stolen "
                    f"by the hypervisor (hold budget used up)\n"
                )
                return
            self.held_s += WINDOW_S
            self._charge(WINDOW_S)

    def should_remeasure(self, stolen: float, pass_s: float) -> bool:
        """Whether a pass that had ``stolen`` of its CPU time taken is
        discarded and measured again (charging its ``pass_s``)."""
        if stolen <= STEAL_LIMIT:
            return False
        if self.retries >= RUN_RETRIES or self._spent() >= CHECKOUT_BUDGET_S:
            sys.stderr.write(
                f"warning: {stolen:.0%} of CPU time was stolen by the "
                f"hypervisor during the measured pass; timings read high\n"
            )
            return False
        self.retries += 1
        self._charge(pass_s)
        sys.stderr.write(
            f"note: {stolen:.0%} of CPU time was stolen during the measured "
            f"pass; measuring again\n"
        )
        return True
