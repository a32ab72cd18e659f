"""Deadlines as first-class values, checked cooperatively.

A request that cannot be answered in time should fail *typed* and
*early* — not run an exponential enumeration to completion for a caller
that stopped listening.  :class:`Deadline` captures an absolute expiry
on a monotonic clock at admission time; engines check it cooperatively
at their natural boundaries (admission, dequeue, between compilation
and the sweep, between sampling waves) and raise
:class:`DeadlineExceeded` — a typed error the serving tier can count,
shed on, or degrade around, instead of a silent slow answer.

The module lives in :mod:`repro.core` so the evaluation engines
(:mod:`repro.pqe.engine`, :mod:`repro.pqe.approximate`) can honor
deadlines without importing the serving layer that issues them.
``clock`` is injectable everywhere so state-machine tests drive time by
hand instead of sleeping.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable


class DeadlineExceeded(TimeoutError):
    """A typed "ran out of time": the work was cut off (or never begun)
    because its :class:`Deadline` expired.  Raised by cooperative checks,
    never by preemption — in-flight floating-point work is either
    finished and delivered or not started, so determinism guarantees
    (same seed, same budget, same bits) survive deadline enforcement."""


class Deadline:
    """An absolute expiry on a monotonic clock.

    Built once at admission from a relative latency budget
    (``Deadline(deadline_ms)``), then carried with the request and
    checked wherever work could be abandoned.  Comparisons and
    :meth:`latest` let shared computations (one evaluation serving
    several microbatch members) run under the *least* restrictive
    member deadline: the work aborts only once nobody could use its
    result.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(
        self,
        deadline_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not (isinstance(deadline_ms, (int, float))
                and math.isfinite(deadline_ms) and deadline_ms > 0):
            raise ValueError(
                f"deadline_ms must be a positive finite number, got "
                f"{deadline_ms!r}"
            )
        self._clock = clock
        self._expires_at = clock() + deadline_ms / 1e3

    @property
    def expires_at(self) -> float:
        """The absolute expiry, in the clock's seconds."""
        return self._expires_at

    def remaining_ms(self) -> float:
        """Milliseconds until expiry (negative once expired)."""
        return (self._expires_at - self._clock()) * 1e3

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed.

        ``context`` names the boundary that ran the check (``"sampling
        wave"``, ``"compilation"``), so a served error says where the
        time went.
        """
        if self.expired():
            where = f" at {context}" if context else ""
            raise DeadlineExceeded(
                f"deadline exceeded{where} "
                f"({-self.remaining_ms():.3f} ms past expiry)"
            )

    @staticmethod
    def latest(deadlines: Iterable["Deadline"]) -> "Deadline":
        """The member with the latest expiry (for shared computations).

        :raises ValueError: on an empty iterable.
        """
        chosen = None
        for deadline in deadlines:
            if chosen is None or deadline._expires_at > chosen._expires_at:
                chosen = deadline
        if chosen is None:
            raise ValueError("latest() of no deadlines")
        return chosen

    def __repr__(self) -> str:
        return f"Deadline(remaining_ms={self.remaining_ms():.3f})"
