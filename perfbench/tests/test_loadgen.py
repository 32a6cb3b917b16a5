"""Deterministic inputs, and open-loop timing from when a request was
due, checked against a fake server on a fake clock."""

from types import SimpleNamespace

import numpy as np
import pytest

from loadgen import (open_schedule, run_closed_loop, run_open_loop,
                     volume_picks)


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.now += dt


class Future:
    def __init__(self, ready_at, clock, value):
        self.ready_at, self.clock, self.value = ready_at, clock, value
        self.shed = False

    def done(self):
        return self.clock() >= self.ready_at

    def result(self):
        return self.value


class FakeServer:
    """Answers every request ``service`` seconds after submit; the
    submits listed in ``stall`` block the caller for that long."""

    def __init__(self, clock, service=0.01, stall=None):
        self.clock, self.service = clock, service
        self.stall = dict(stall or {})
        self.submitted = []

    def submit(self, volume):
        i = len(self.submitted)
        self.submitted.append((self.clock(), volume))
        self.clock.sleep(self.stall.get(i, 0.0))
        t = self.clock()
        resp = SimpleNamespace(
            queue_wait_s=0.0, batch_wait_s=0.0, dispatch_s=0.0,
            compute_s=self.service, stitch_s=0.0, latency_s=self.service,
            batch_size=1, attempt=0, chunks=0, replica=0,
            prediction=np.asarray(volume))
        return Future(t + self.service, self.clock, resp)

    def step(self):
        return 0


def test_schedule_and_picks_are_deterministic():
    assert open_schedule(30, 2) == open_schedule(30, 2)
    assert len(open_schedule(30, 2)) == 60
    assert open_schedule(30, 2)[1] == pytest.approx(1 / 30)
    assert volume_picks(4, 50, 16) == volume_picks(4, 50, 16)
    assert volume_picks(4, 50, 16) != volume_picks(5, 50, 16)
    assert set(volume_picks(4, 500, 16)) == set(range(16))


def test_volume_pool_is_deterministic():
    from workloads import _volume_pool

    a_img, a_mask = _volume_pool((16, 16, 16), 2, 1234)
    b_img, b_mask = _volume_pool((16, 16, 16), 2, 1234)
    for x, y in zip(a_img + a_mask, b_img + b_mask):
        assert np.array_equal(x, y)
    c_img, _ = _volume_pool((16, 16, 16), 2, 1235)
    assert not np.array_equal(a_img[0], c_img[0])


def test_open_loop_times_requests_from_when_they_were_due():
    clock = Clock()
    # the 3rd submit stalls the generator for 50 ms: requests due
    # meanwhile go out late and must carry that wait in their latency
    server = FakeServer(clock, service=0.01, stall={2: 0.05})
    schedule = open_schedule(100, 0.1)          # every 10 ms
    outs = run_open_loop(server, [0, 1, 2], schedule, [0] * 10,
                         clock=clock, sleep=clock.sleep, poll_s=0.001)
    assert all(o.ok for o in outs)
    t0 = outs[0].due
    for o, off in zip(outs, schedule):
        assert o.due == pytest.approx(t0 + off)
        assert o.latency_s == pytest.approx(o.seen - o.due)
        assert o.latency_s >= o.fields["latency_s"]
    late = outs[3]
    assert late.sent - late.due > 0.02           # sent after the stall
    assert late.latency_s >= (late.sent - late.due) + 0.01
    # from when it was sent it would look as fast as the others
    assert late.seen - late.sent < 0.02


def test_open_loop_keeps_only_sampled_predictions():
    clock = Clock()
    outs = run_open_loop(FakeServer(clock), [np.zeros(2), np.ones(2)],
                         open_schedule(100, 0.05), [0, 1, 0, 1, 0],
                         keep={1, 3}, clock=clock, sleep=clock.sleep)
    kept = [o.index for o in outs if o.prediction is not None]
    assert kept == [1, 3]
    assert np.array_equal(outs[1].prediction, np.ones(2))


def test_closed_loop_next_request_is_due_when_the_last_is_seen():
    clock = Clock()
    server = FakeServer(clock, service=0.1)
    outs = run_closed_loop(server, [0], [0] * 100, clients=2,
                           duration_s=1.0, clock=clock, sleep=clock.sleep,
                           poll_s=0.001)
    assert all(o.ok for o in outs)
    seen = sorted(o.seen for o in outs)
    later = [o for o in outs if o.index >= 2]
    assert later and all(min(abs(o.due - s) for s in seen) < 1e-9
                         for o in later)
    assert 18 <= len(outs) <= 24                 # 2 clients x ~1 s / 0.1 s
