"""Shared scaffolding for the chaos harnesses and the simulation.

The chaos harnesses grew private copies of the same workload
bookkeeping: the 255-step payload pattern, the seeded "keep the
allocator moving" free and the lease+grace lapse loop.  This module is
the one copy.

RNG discipline: every helper that consumes randomness documents its
exact draw order, and callers must not reorder draws around it -- the
chaos results and the simulation histories are seeded artifacts, and
an extra or missing ``rng.random()`` silently changes every subsequent
decision in a run.
"""

from __future__ import annotations

import random
from typing import Callable


class PayloadPattern:
    """The shared 255-step payload generator.

    Every harness writes recognizable, never-zero, never-repeating-soon
    payloads so a lost or misdirected write shows up as a byte mismatch
    rather than a coincidental match.  Consumes no randomness.
    """

    def __init__(self) -> None:
        self.pattern = 0

    def next_payload(self, size: int, cap: int = 256) -> bytes:
        self.pattern = (self.pattern + 1) % 255
        return bytes([self.pattern + 1]) * min(size, cap)


def draw_free_candidate(
    rng: random.Random,
    expected: dict[int, bytes],
    rate: float,
    *,
    min_live: int = 1,
) -> int | None:
    """The seeded "keep the allocator moving" free decision.

    Returns the pointer to free, or None.  Draw order (the harnesses'
    historical order, preserved exactly): if fewer than ``min_live``
    allocations are live, *no* draw happens; otherwise one
    ``rng.random()`` gate, and only on success one
    ``rng.choice(sorted(expected))``.  The caller performs the free and
    the ledger update -- refusal semantics differ per harness.
    """
    if len(expected) < min_live:
        return None
    if rng.random() >= rate:
        return None
    return rng.choice(sorted(expected))


def advance_past_grace(
    clock,
    lease_s: float,
    grace_s: float,
    on_tick: Callable[[], None] | None = None,
) -> None:
    """March virtual time past one full lease + grace period.

    Steps by half a lease so live clients (renewed via ``on_tick``)
    never expire while dead ones lapse through orphaned into reclaim.
    """
    total_s = lease_s + grace_s
    step_s = lease_s / 2
    elapsed = 0.0
    while elapsed <= total_s:
        clock.advance_s(step_s)
        elapsed += step_s
        if on_tick is not None:
            on_tick()


def detection_window(
    injected_ns: int, detected_ns: int, budget_s: float
) -> tuple[int, bool]:
    """Gray-failure bookkeeping: ``(detection latency, within budget)``.

    ``detected_ns < 0`` means never detected: latency is reported as -1
    and the budget check fails.
    """
    if detected_ns < 0:
        return -1, False
    latency = detected_ns - injected_ns
    return latency, 0 <= latency <= int(budget_s * 1e9)
