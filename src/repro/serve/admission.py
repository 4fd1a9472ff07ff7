"""Admission control: a global memory budget over concurrent requests.

The server shares one :class:`AdmissionController` across its workers.
Before a worker materializes a request it acquires the request's
working-set bytes here; the controller charges them to a
:class:`~repro.storage.store.ResidentGauge` and blocks further
acquisitions that would push the total past ``memory_budget`` until
running requests release their leases. That makes the budget a true
concurrency limiter: two half-budget tensors decompose in parallel, two
three-quarter-budget tensors take turns.

A request *larger* than the whole budget is charged ``min(nbytes,
budget)`` — it runs, alone, with the session's out-of-core path keeping
its *resident* footprint inside the budget (the PR-5 spill guarantee) —
rather than being shed as unserveable.

:class:`AdmissionError` is reserved for the server's fast rejections:
a full bounded queue, or submissions after drain began.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError
from repro.storage import ResidentGauge, parse_bytes

__all__ = ["AdmissionController", "AdmissionError"]


class AdmissionError(ReproError):
    """The server refused (or timed out) a request at the door.

    ``reason`` is machine-readable: ``"queue_full"``, ``"draining"`` or
    ``"budget_timeout"``.
    """

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class AdmissionController:
    """Byte-budget gatekeeper shared by every worker of one server."""

    def __init__(
        self,
        memory_budget: int | str | None = None,
        *,
        gauge: ResidentGauge | None = None,
    ) -> None:
        self.budget = (
            parse_bytes(memory_budget) if memory_budget is not None else None
        )
        if self.budget is not None and self.budget <= 0:
            raise ValueError("memory_budget must be positive bytes")
        self.gauge = gauge if gauge is not None else ResidentGauge()
        self._cond = threading.Condition()
        self.waits = 0  # acquisitions that had to block

    def charge_for(self, nbytes: int) -> int:
        """The bytes actually charged for an ``nbytes`` request."""
        nbytes = int(nbytes)
        if self.budget is None:
            return nbytes
        return min(nbytes, self.budget)

    def acquire(self, nbytes: int, *, timeout: float | None = None) -> int:
        """Block until ``nbytes`` fits under the budget; return the charge.

        With no budget the charge is recorded (observability) and never
        blocks. ``timeout`` bounds the wait — a deadline-carrying request
        hands its remaining seconds here — and raises
        :class:`AdmissionError` (``reason="budget_timeout"``) on expiry.
        """
        charge = self.charge_for(nbytes)
        if self.budget is None:
            self.gauge.charge(charge)
            return charge
        with self._cond:
            if self.gauge.current + charge > self.budget:
                self.waits += 1
                fits = self._cond.wait_for(
                    lambda: self.gauge.current + charge <= self.budget,
                    timeout=timeout,
                )
                if not fits:
                    raise AdmissionError(
                        f"budget wait timed out: {charge} bytes against "
                        f"{self.budget - self.gauge.current} free",
                        reason="budget_timeout",
                    )
            self.gauge.charge(charge)
        return charge

    def release(self, charge: int) -> None:
        with self._cond:
            self.gauge.release(charge)
            self._cond.notify_all()

    def snapshot(self) -> dict:
        return {
            "budget": self.budget,
            "charged": self.gauge.current,
            "charged_peak": self.gauge.peak,
            "waits": self.waits,
        }
