"""Self time: a span's duration minus its children's, per layer."""

import pytest

from tracing import Recorder, self_times


def _span(sid, name, start, end, parent=None, pid=1, extra=0.0):
    return {"id": sid, "name": name, "pid": pid, "tid": 1,
            "parent": parent, "start": start, "end": end, "extra": extra}


def test_self_time_subtracts_children_and_kernel_extra():
    spans = [
        _span(0, "bench.search", 0.0, 10.0),
        _span(1, "core.train_trial", 1.0, 9.0, parent=0),
        _span(2, "sgd.train_step", 2.0, 6.0, parent=1, extra=3.0),
        _span(3, "collectives.allreduce", 5.0, 5.5, parent=2),
        # same ids in another process are other spans
        _span(1, "core.train_trial", 0.0, 4.0, pid=2),
    ]
    st = self_times(spans)
    assert st["bench"] == pytest.approx(2.0)
    assert st["core"] == pytest.approx(4.0 + 4.0)
    assert st["sgd"] == pytest.approx(0.5)
    assert st["nn"] == pytest.approx(3.0)
    assert st["collectives"] == pytest.approx(0.5)
    assert sum(st.values()) == pytest.approx(10.0 + 4.0)


def test_recorder_nests_spans_per_thread(tmp_path):
    rec = Recorder(tmp_path)
    with rec.span("a.outer"):
        with rec.span("b.inner"):
            pass
    outer, inner = sorted(rec.spans, key=lambda s: s["start"])
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
