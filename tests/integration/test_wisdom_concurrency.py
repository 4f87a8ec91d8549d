"""Wisdom under concurrency: JSON round-trip, atomic save, and the
read-merge-write transaction that lets instances, threads and processes
share one file without losing records."""

import json
import multiprocessing
import sys
import threading

from repro.wisdom import Wisdom

ROUNDS = 25


def _record():
    return {"best": {"strategy": "radix2", "min_leaf": 16, "nu": 1}}


def _write_all(path, who, rounds=ROUNDS):
    """One writer: its own instance, interleaving two kinds of ranking.

    Some go under the writer's own sizes (a lost update drops a key);
    the rest all land in one shared entry, each under a lane of its own
    (a lost update drops a lane another writer added).
    """
    w = Wisdom(path)
    for i in range(rounds):
        n = 2 ** (4 + i % 8)
        w.record_tuning(n, who, 4, "numpy", "sequential", _record())
        w.record_tuning(64, 1, 8, "numpy", f"w{who}.{i}", _record())


def _assert_all_survived(path, writers, rounds=ROUNDS):
    stored = json.loads(path.read_text())
    w = Wisdom(path)
    for who in writers:
        for i in range(rounds):
            n = 2 ** (4 + i % 8)
            assert w.tuning(n, who, 4, "numpy", "sequential") == _record()
            assert w.tuning(64, 1, 8, "numpy", f"w{who}.{i}") == _record()
    shared = stored["dft:64:p1:mu8"]["tune"]["rankings"]
    assert len(shared) == len(writers) * rounds
    assert set(stored) == {
        f"dft:{2 ** (4 + i)}:p{who}:mu4" for who in writers for i in range(8)
    } | {"dft:64:p1:mu8"}
    residue = sorted(p.name for p in path.parent.iterdir())
    assert residue == [path.name, path.name + ".lock"], residue


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "wisdom.json"
        w1 = Wisdom(path)
        w1.record_tuning(256, 2, 4, "numpy", "pthreads", _record())
        w1.record_tuning(256, 2, 4, "numpy", "sequential",
                         {"best": {"strategy": "balanced"}})

        # the file is valid JSON holding the versioned tune block
        stored = json.loads(path.read_text())
        assert set(stored) == {"dft:256:p2:mu4"}
        assert set(stored["dft:256:p2:mu4"]["tune"]) == {
            "version", "rankings"
        }

        # a fresh instance reloads exactly what was recorded
        w2 = Wisdom(path)
        assert (256, 2, 4) in w2
        assert w2.tuning(256, 2, 4, "numpy", "pthreads") == _record()
        assert w2.tuning(256, 2, 4, "numpy", "sequential") == \
            w1.tuning(256, 2, 4, "numpy", "sequential")

    def test_save_leaves_no_temp_residue(self, tmp_path):
        path = tmp_path / "wisdom.json"
        w = Wisdom(path)
        w.record_tuning(64, 1, 4, "numpy", "sequential", _record())
        w.record_tuning(128, 1, 4, "compiled", "sequential", _record())
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name not in ("wisdom.json", "wisdom.json.lock")]
        assert leftovers == [], f"temp files left behind: {leftovers}"
        json.loads(path.read_text())  # and the final file is complete JSON


class TestSharedFile:
    def test_two_instances_do_not_overwrite_each_other(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a, b = Wisdom(path), Wisdom(path)
        a.record_tuning(64, 1, 4, "numpy", "sequential", _record())
        b.record_tuning(128, 1, 4, "numpy", "sequential",
                        {"best": {"strategy": "balanced"}})
        assert set(json.loads(path.read_text())) == {
            "dft:64:p1:mu4", "dft:128:p1:mu4"
        }
        # the instance is a cache of the file: a sees what b wrote
        assert a.best(128, 1, 4, "numpy", "sequential") == \
            {"strategy": "balanced"}
        assert len(a) == len(b) == 2

    def test_concurrent_distinct_configs(self, tmp_path):
        path = tmp_path / "wisdom.json"
        w = Wisdom(path)
        sizes = [64, 128, 256, 512]
        barrier = threading.Barrier(len(sizes))

        def worker(n):
            barrier.wait()
            w.record_tuning(n, 1, 4, "numpy", "sequential", _record())

        threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(w) == len(sizes)
        # the persisted store survived the concurrent saves intact
        assert set(json.loads(path.read_text())) == {
            f"dft:{n}:p1:mu4" for n in sizes
        }

    def test_interleaved_writers_in_threads(self, tmp_path):
        path = tmp_path / "wisdom.json"
        writers = (1, 2, 3)
        torn = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                if path.exists():
                    try:
                        json.loads(path.read_text())
                    except json.JSONDecodeError as exc:
                        torn.append(exc)

        threads = [threading.Thread(target=_write_all, args=(path, who))
                   for who in writers]
        watch = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watch.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            done.set()
            watch.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [watch])
        assert not torn, "a reader saw a torn wisdom file"
        _assert_all_survived(path, writers)

    def test_interleaved_writers_in_processes(self, tmp_path):
        path = tmp_path / "wisdom.json"
        writers = (1, 2)
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_write_all, args=(path, who))
                 for who in writers]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert [p.exitcode for p in procs] == [0, 0]
        _assert_all_survived(path, writers)

    def test_a_transaction_rewrites_the_file_once(self, tmp_path,
                                                  wisdom_saves):
        w = Wisdom(tmp_path / "wisdom.json")
        with w.transaction():
            for n in (64, 128, 256):
                w.record_tuning(n, 1, 4, "numpy", "sequential", _record())
        assert len(wisdom_saves) == 1 and len(Wisdom(w.path)) == 3
        w.record_tuning(64, 1, 4, "numpy", "sequential", _record())
        assert len(wisdom_saves) == 2
