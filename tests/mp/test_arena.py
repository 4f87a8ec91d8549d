"""Shared-memory arena: ownership, refcounts, attach, leak accounting."""

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.mp import SharedArena, attach, live_segment_names, segment_stats


def _mapped() -> str:
    """This process's mappings, one line each (an unlinked segment's name
    stays in its line)."""
    with open("/proc/self/maps") as maps:
        return maps.read()


class TestSharedArena:
    def test_allocate_and_view(self):
        with SharedArena(prefix="t-arena") as arena:
            buf = arena.allocate(64)
            assert buf.nelems == 64
            assert buf.array.dtype == np.complex128
            buf.array[:] = 1 + 2j
            assert np.all(buf.array == 1 + 2j)
            assert arena.active == 1
        assert arena.active == 0

    def test_refcounting(self):
        arena = SharedArena(prefix="t-ref")
        buf = arena.allocate(8)
        buf.acquire()
        buf.release()          # back to one holder
        assert buf.live
        buf.release()          # last reference: unlinked
        assert not buf.live
        assert arena.active == 0
        arena.close()

    def test_close_is_idempotent_and_forces_unlink(self):
        arena = SharedArena(prefix="t-close")
        buf = arena.allocate(8)
        buf.acquire()          # extra reference survives until close
        arena.close()
        assert not buf.live
        arena.close()          # no-op
        assert arena.active == 0

    def test_allocate_after_close_rejected(self):
        arena = SharedArena(prefix="t-dead")
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.allocate(8)

    def test_bad_size_rejected(self):
        with SharedArena(prefix="t-bad") as arena:
            with pytest.raises(ValueError):
                arena.allocate(0)

    def test_stats_snapshot(self):
        with SharedArena(prefix="t-stats") as arena:
            a = arena.allocate(16)
            arena.allocate(16)
            a.release()
            snap = arena.stats.snapshot()
            assert snap["created"] == 2
            assert snap["released"] == 1
            assert snap["active"] == 1
            assert snap["active_bytes"] == 16 * 16  # complex128

    def test_names_are_unique(self):
        with SharedArena(prefix="t-uniq") as arena:
            names = {arena.allocate(4).name for _ in range(8)}
            assert len(names) == 8


    def test_a_release_under_a_live_export_leaves_only_the_unmap(self):
        """Released while an ``np.frombuffer`` export of its mapping lives,
        a buffer loses its name and counts as released and unlinked at
        once; the export reads the same bytes; its death unmaps the
        segment, and nothing is raised on the way."""
        raised: list = []
        hook, sys.unraisablehook = sys.unraisablehook, raised.append
        try:
            before = segment_stats()
            arena = SharedArena(prefix="t-export")
            buf = arena.allocate(64)
            buf.array[:] = np.arange(64)
            export = np.frombuffer(memoryview(buf.array), np.complex128)
            name = buf.name
            buf.release()
            assert not buf.live and name not in live_segment_names()
            assert not os.path.exists(f"/dev/shm/{name}")
            assert arena.stats.snapshot()["released"] == 1
            assert segment_stats()["unlinked"] == before["unlinked"] + 1
            assert name in _mapped()
            np.testing.assert_array_equal(export, np.arange(64))
            del export
            gc.collect()
            assert name not in _mapped()
            after = segment_stats()
            assert after["created"] - after["unlinked"] == after["live"]
            assert after["leaked_at_exit"] == before["leaked_at_exit"]
            arena.close()
        finally:
            sys.unraisablehook = hook
        assert raised == []


    def test_a_buffer_dropped_under_a_live_export_raises_nothing(self):
        """An unlinked buffer (a client's wire segment) whose holders drop
        it unreleased, as at interpreter exit, while a view of it lives:
        nothing is raised, the view reads on, and its death unmaps."""
        raised: list = []
        hook, sys.unraisablehook = sys.unraisablehook, raised.append
        try:
            arena = SharedArena(prefix="t-drop")
            buf = arena.allocate(64)
            buf.array[:] = np.arange(64)
            export = np.frombuffer(memoryview(buf.array), np.complex128)
            name = buf.name
            buf.unlink()
            del buf, arena
            gc.collect()
            np.testing.assert_array_equal(export, np.arange(64))
            del export
            gc.collect()
            assert name not in _mapped()
        finally:
            sys.unraisablehook = hook
        assert raised == []


class TestAttach:
    def test_attach_sees_owner_writes(self):
        with SharedArena(prefix="t-att") as arena:
            buf = arena.allocate(32)
            buf.array[:] = np.arange(32)
            seg = attach(buf.name, 32)
            np.testing.assert_array_equal(seg.array, buf.array)
            seg.array[0] = 99  # shared mapping: writes go both ways
            assert buf.array[0] == 99
            seg.close()
            seg.close()  # idempotent

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach("no-such-segment-xyz", 8)

    @pytest.mark.parametrize("untrack", [False, True])
    def test_a_segment_smaller_than_asked_for_is_refused(self, untrack):
        with SharedArena(prefix="t-small") as arena:
            buf = arena.allocate(8)
            with pytest.raises(ValueError, match="smaller"):
                attach(buf.name, 4096, untrack=untrack)

    @pytest.mark.parametrize("untrack", [False, True])
    def test_a_view_outlives_close(self, untrack):
        """``close()`` with a view of the mapping still alive: the view
        reads the values, the mapping (and any descriptor) goes when the
        view does, and nothing is said on the way.  In a subprocess,
        because unmapped pages under a view are a segfault, not an
        exception."""
        script = textwrap.dedent(f"""
            import gc, os
            import numpy as np
            from repro.mp import SharedArena, attach
            with SharedArena(prefix="t-view") as arena:
                buf = arena.allocate(1024)
                buf.array[:] = np.arange(1024)
                fds = len(os.listdir("/proc/self/fd"))
                seg = attach(buf.name, 1024, untrack={untrack})
                view = seg.array[10:20]
                seg.close()
                del seg
                gc.collect()
                assert view.tolist() == list(range(10, 20)), view
                del view
                gc.collect()
                assert len(os.listdir("/proc/self/fd")) == fds
            print("intact")
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "intact"
        assert proc.stderr == ""


class TestProcessWideAccounting:
    def test_registry_tracks_live_segments(self):
        before = set(live_segment_names())
        arena = SharedArena(prefix="t-reg")
        buf = arena.allocate(8)
        assert buf.name in live_segment_names()
        arena.close()
        assert set(live_segment_names()) == before

    def test_counters_balance_after_close(self):
        arena = SharedArena(prefix="t-bal")
        for _ in range(3):
            arena.allocate(8)
        arena.close()
        stats = segment_stats()
        assert stats["created"] - stats["unlinked"] == stats["live"]
