"""Span bookkeeping: parents, op ids, self time = duration - child coverage."""

import json

import pytest

from harness.spans import SpanStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    store = SpanStore(clock)
    op = store.begin("op", op=7)          # 0 .. 10
    clock.now = 1.0
    a = store.begin("layer.a")            # 1 .. 4
    clock.now = 2.0
    inner = store.begin("layer.inner")    # 2 .. 3
    clock.now = 3.0
    store.end(inner)
    clock.now = 4.0
    store.end(a)
    clock.now = 6.0
    b = store.begin("layer.b")            # 6 .. 9
    clock.now = 9.0
    store.end(b)
    clock.now = 10.0
    assert store.end(op) == 10.0

    selfs = dict(zip(("op", "a", "inner", "b"), store.self_times()))
    assert selfs == {"op": 4.0, "a": 2.0, "inner": 1.0, "b": 3.0}
    # spans of one operation share its id; parents are the enclosing span
    assert [s[4] for s in store.spans] == [7, 7, 7, 7]
    assert [s[3] for s in store.spans] == [None, op, a, op]
    # self times of a tree add up to the root's duration
    assert sum(selfs.values()) == 10.0


def test_overlapping_and_overhanging_children_are_not_counted_twice():
    store = SpanStore(FakeClock())
    root = store.add("root", 0.0, 10.0)
    store.add("x", 1.0, 5.0, parent=root)
    store.add("y", 3.0, 7.0, parent=root)    # overlaps x
    store.add("z", 9.0, 12.0, parent=root)   # hangs over the end
    assert store.self_times()[root] == pytest.approx(10.0 - 6.0 - 1.0)


def test_closing_out_of_order_is_an_error():
    store = SpanStore(FakeClock())
    outer = store.begin("outer")
    store.begin("inner")
    with pytest.raises(RuntimeError):
        store.end(outer)


def test_dump_writes_every_field(tmp_path):
    clock = FakeClock()
    store = SpanStore(clock)
    sid = store.begin("op", op=1)
    clock.now = 2.0
    store.end(sid)
    path = tmp_path / "trace.json"
    store.dump(path)
    (span,) = json.loads(path.read_text())["spans"]
    assert span == {"id": 0, "name": "op", "start": 0.0, "end": 2.0,
                    "parent": None, "op": 1, "self": 2.0}
