"""Load generation against :class:`repro.serve.ModelServer`.

Two loops, both driven only through the server's public
``submit``/``step`` surface:

* :func:`run_open_loop` sends on a fixed schedule whatever the server
  does, so a stall makes later requests wait; each request is timed from
  when it was *due*, not from when it was sent, and the generator
  reports how late it ran.
* :func:`run_closed_loop` keeps ``clients`` requests in flight: a
  client's next request is due the moment it sees the previous answer.

The loops never sleep longer than ``poll_s`` between ``step`` calls, so
the driver notices worker messages within that slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Outcome", "open_schedule", "volume_picks", "run_open_loop",
           "run_closed_loop"]

_PHASES = ("queue_wait_s", "batch_wait_s", "dispatch_s", "compute_s",
           "stitch_s")


@dataclass
class Outcome:
    """One request as the load generator saw it (monotonic seconds)."""

    index: int
    volume: int                 # index into the workload's volume pool
    due: float
    sent: float = 0.0           # submit() called
    seen: float | None = None   # generator noticed the answer
    error: str | None = None
    shed: bool = False
    fields: dict = field(default_factory=dict)   # response provenance
    prediction: np.ndarray | None = None         # kept for sampled checks

    @property
    def ok(self) -> bool:
        return self.seen is not None and self.error is None and not self.shed

    @property
    def latency_s(self) -> float:
        """Due -> seen: the wait a user of the service experiences."""
        return self.seen - self.due


def open_schedule(rate: float, duration_s: float) -> list[float]:
    """Due offsets (seconds from the start) of a fixed-rate open loop."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be > 0")
    return [i / rate for i in range(max(1, int(round(rate * duration_s))))]


def volume_picks(seed: int, n: int, pool: int) -> list[int]:
    """Seeded choice of which pool volume each of ``n`` requests sends."""
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(v) for v in rng.integers(0, pool, size=n)]


def _collect(out: Outcome, future, now: float, keep: bool) -> None:
    out.seen = now
    if future.shed:
        out.shed = True
        return
    try:
        resp = future.result()
    except RuntimeError as exc:
        out.error = str(exc)
        return
    out.fields = {name: float(getattr(resp, name)) for name in _PHASES}
    out.fields.update(latency_s=float(resp.latency_s),
                      batch_size=int(resp.batch_size),
                      attempt=int(resp.attempt), chunks=int(resp.chunks),
                      replica=resp.replica)
    if keep:
        out.prediction = resp.prediction


def run_open_loop(server, volumes, schedule, picks, keep=frozenset(),
                  clock=time.monotonic, sleep=time.sleep,
                  poll_s: float = 0.0005,
                  drain_s: float = 30.0) -> list[Outcome]:
    """Send request ``i`` (``volumes[picks[i]]``) when ``schedule[i]``
    seconds have passed, step the server in between, and return every
    request's :class:`Outcome` in send order.  Requests whose index is
    in ``keep`` keep their prediction."""
    if len(picks) != len(schedule):
        raise ValueError("need one volume pick per scheduled request")
    t0 = clock()
    outcomes = [Outcome(index=i, volume=picks[i], due=t0 + off)
                for i, off in enumerate(schedule)]
    waiting: dict[int, object] = {}
    nxt = 0
    deadline = t0 + schedule[-1] + drain_s
    while nxt < len(outcomes) or waiting:
        now = clock()
        while nxt < len(outcomes) and outcomes[nxt].due <= now:
            out = outcomes[nxt]
            out.sent = clock()
            waiting[nxt] = server.submit(volumes[out.volume])
            nxt += 1
        server.step()
        now = clock()
        for i in [i for i, f in waiting.items() if f.done()]:
            _collect(outcomes[i], waiting.pop(i), now, i in keep)
        if now > deadline:
            for i, _ in waiting.items():
                outcomes[i].error = "not answered before the drain deadline"
            break
        pause = poll_s
        if nxt < len(outcomes):
            pause = min(pause, outcomes[nxt].due - now)
        if pause > 0:
            sleep(pause)
    return outcomes


def run_closed_loop(server, volumes, picks, clients: int,
                    duration_s: float, keep=frozenset(),
                    clock=time.monotonic, sleep=time.sleep,
                    poll_s: float = 0.0005,
                    drain_s: float = 60.0) -> list[Outcome]:
    """``clients`` clients each send, wait for the answer, and send the
    next (the i-th request sent carries ``volumes[picks[i]]``) until
    ``duration_s`` has passed; requests in flight then finish."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    t0 = clock()
    end = t0 + duration_s
    outcomes: list[Outcome] = []
    waiting: dict[int, object] = {}

    def send(due: float) -> None:
        i = len(outcomes)
        if i >= len(picks):
            raise ValueError("ran out of volume picks; pass a longer list")
        out = Outcome(index=i, volume=picks[i], due=due)
        out.sent = clock()
        waiting[i] = server.submit(volumes[out.volume])
        outcomes.append(out)

    for _ in range(clients):
        send(clock())
    while waiting:
        server.step()
        now = clock()
        for i in [i for i, f in waiting.items() if f.done()]:
            _collect(outcomes[i], waiting.pop(i), now, i in keep)
            if now < end:
                send(now)   # the client's next request is due now
        if now > end + drain_s:
            for i in waiting:
                outcomes[i].error = "not answered before the drain deadline"
            break
        if waiting:
            sleep(poll_s)
    return outcomes
