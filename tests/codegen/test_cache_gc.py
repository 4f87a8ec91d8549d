"""Content-addressed codelet-cache GC: prune_codelet_cache + env bound.

A plan entry is ``plan_<size>_<key>.so`` + ``.c`` + ``.tab`` and goes as
one; codelet objects (``codelet_<key>.o`` + ``.c``) are build inputs no
``.so`` needs once it is linked, evicted by last use.
"""

import os
import time

import numpy as np
import pytest

from repro.codegen import prune_codelet_cache
from repro.codegen.compiled_backend import (
    CACHE_MAX_ENV,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
)
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp.runtime import SequentialRuntime

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)


def _backdate(path, age_s):
    when = time.time() - age_s
    os.utime(path, (when, when))


def _fake_entry(cache, name, age_s=0.0, body=b"x" * 64):
    """One plan_<size>_<key>.so + .c + .tab with a back-dated access time."""
    so = cache / f"{name}.so"
    so.write_bytes(body)
    (cache / f"{name}.c").write_bytes(b"/* src */")
    (cache / f"{name}.tab").write_bytes(b"\0" * 128)
    _backdate(so, age_s)
    return so


def _fake_codelet(cache, key, age_s=0.0):
    """One codelet_<key>.o + .c with a back-dated access time."""
    obj = cache / f"codelet_{key}.o"
    obj.write_bytes(b"o" * 32)
    (cache / f"codelet_{key}.c").write_bytes(b"/* codelet */")
    _backdate(obj, age_s)
    return obj


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
    monkeypatch.delenv(CACHE_MAX_ENV, raising=False)
    clear_compiled_memo()
    yield tmp_path
    clear_compiled_memo()


class TestPrune:
    def test_report_only_without_bound(self, cache):
        _fake_entry(cache, "plan_64_aaaa", age_s=10)
        _fake_codelet(cache, "stale", age_s=1000)
        report = prune_codelet_cache()
        assert report == {"entries": 1, "pruned": 0, "kept": 1,
                          "bytes_freed": 0, "protected": 0,
                          "codelets": 1, "codelets_pruned": 0}
        assert (cache / "plan_64_aaaa.so").exists()
        assert (cache / "codelet_stale.o").exists()

    def test_prunes_oldest_first(self, cache):
        _fake_entry(cache, "plan_64_old", age_s=1000)
        _fake_entry(cache, "plan_64_mid", age_s=100)
        _fake_entry(cache, "plan_64_new", age_s=0)
        report = prune_codelet_cache(max_entries=2)
        assert report["pruned"] == 1 and report["kept"] == 2
        assert not list(cache.glob("plan_64_old.*"))  # .so, .c, .tab: as one
        assert len(list(cache.glob("plan_64_mid.*"))) == 3
        assert len(list(cache.glob("plan_64_new.*"))) == 3
        assert report["bytes_freed"] == 64 + len(b"/* src */") + 128

    def test_keep_set_protects_entries(self, cache):
        _fake_entry(cache, "plan_64_prot", age_s=1000)
        _fake_entry(cache, "plan_64_newer", age_s=0)
        report = prune_codelet_cache(max_entries=1, keep={"prot"})
        # the protected key survives even though it is the oldest
        assert (cache / "plan_64_prot.so").exists()
        assert not (cache / "plan_64_newer.so").exists()
        assert report["pruned"] == 1 and report["protected"] == 1

    def test_prune_to_zero(self, cache):
        _fake_entry(cache, "plan_64_a")
        _fake_entry(cache, "plan_128_b")
        _fake_codelet(cache, "k8")
        _fake_codelet(cache, "k16", age_s=500)
        report = prune_codelet_cache(max_entries=0)
        assert report["pruned"] == 2 and report["codelets_pruned"] == 2
        assert not list(cache.iterdir())

    def test_codelets_go_when_unused_since_the_oldest_kept_plan(self, cache):
        _fake_entry(cache, "plan_64_gone", age_s=1000)
        _fake_entry(cache, "plan_64_kept", age_s=100)
        _fake_entry(cache, "plan_64_new", age_s=0)
        _fake_codelet(cache, "stale", age_s=500)  # older than every kept plan
        _fake_codelet(cache, "used", age_s=100)   # built with plan_64_kept
        _fake_codelet(cache, "fresh", age_s=0)
        report = prune_codelet_cache(max_entries=2)
        assert report["codelets"] == 3 and report["codelets_pruned"] == 1
        assert not list(cache.glob("codelet_stale.*"))  # .o and .c
        assert len(list(cache.glob("codelet_used.*"))) == 2
        assert len(list(cache.glob("codelet_fresh.*"))) == 2

    def test_cli_prints_the_codelet_count(self, cache, capsys):
        from repro.cli import main

        _fake_entry(cache, "plan_64_a")
        _fake_codelet(cache, "k8")
        assert main(["bench", "--prune-cache", "--cache-max", "0"]) == 0
        out = capsys.readouterr().out
        assert "1 entr(ies), pruned 1" in out
        assert "1 codelet object(s), pruned 1" in out

    def test_negative_bound_rejected(self, cache):
        with pytest.raises(ValueError):
            prune_codelet_cache(max_entries=-1)

    def test_env_bound_is_read(self, cache, monkeypatch):
        _fake_entry(cache, "plan_64_old", age_s=1000)
        _fake_entry(cache, "plan_64_new", age_s=0)
        monkeypatch.setenv(CACHE_MAX_ENV, "1")
        report = prune_codelet_cache()
        assert report["pruned"] == 1
        assert (cache / "plan_64_new.so").exists()

    def test_invalid_env_means_report_only(self, cache, monkeypatch):
        _fake_entry(cache, "plan_64_a")
        monkeypatch.setenv(CACHE_MAX_ENV, "banana")
        report = prune_codelet_cache()
        assert report["pruned"] == 0
        assert (cache / "plan_64_a.so").exists()


@needs_cc
class TestCompileAutoPrune:
    def test_compile_plan_autoprunes_under_env(self, cache, monkeypatch):
        # stale fakes that the post-compile auto-prune should remove
        _fake_entry(cache, "plan_64_stale1", age_s=1000)
        _fake_entry(cache, "plan_64_stale2", age_s=900)
        _fake_codelet(cache, "stale", age_s=1000)
        monkeypatch.setenv(CACHE_MAX_ENV, "1")
        program = generate_fft(64).program
        compile_plan(program)
        sos = list(cache.glob("plan_*.so"))
        # the freshly compiled artifact survived its own prune
        assert len(sos) == 1
        assert "stale" not in sos[0].name
        # ... with its siblings and the object it was just linked from,
        # and nothing of the stale entries
        stem = sos[0].stem
        assert {p.name for p in cache.glob("plan_*")} == {
            stem + ".so", stem + ".c", stem + ".tab"
        }
        assert len(list(cache.glob("codelet_*.o"))) == 1
        assert not list(cache.glob("codelet_stale.*"))

    def test_a_tuner_host_leaks_nothing(self, cache, monkeypatch):
        """Bounded-cache mode over a run of new plans keeps one entry's
        files and the objects it was built from — no blob or object per
        plan ever compiled."""
        monkeypatch.setenv(CACHE_MAX_ENV, "1")
        for n, nu in ((64, 1), (128, 1), (64, 4)):
            compile_plan(generate_fft(n, nu=nu).program)
            assert len(list(cache.glob("plan_*.so"))) == 1
            assert len(list(cache.glob("plan_*.tab"))) <= 1
        assert len(list(cache.glob("plan_*"))) == 3
        assert not list(cache.glob("build_*"))


def _run(plan, rng, n):
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    y, _ = run_batched(plan.plan_stages(), n, x, SequentialRuntime())
    np.testing.assert_allclose(
        y, np.fft.fft(x, axis=-1), atol=1e-9 * n, rtol=1e-9
    )


@needs_cc
class TestTheSoIsTheWholeArtifact:
    def test_build_inputs_can_be_deleted(self, cache, rng):
        """Codelet objects and table files are needed by ``cc`` only: with
        all of them gone a loaded plan runs, a cached ``.so`` loads, and
        a neighbouring plan's compile rebuilds the object it needs."""
        gen = generate_fft(256, nu=4)  # 16 x 16: one size-16 nu=4 codelet
        plan = compile_plan(gen.program)
        objects = sorted(p.name for p in cache.glob("codelet_*.o"))
        assert len(objects) == 1 and plan.codelets == (objects[0][8:-2],)
        assert (cache / (plan.so_path.stem + ".tab")).exists()

        for path in [*cache.glob("codelet_*"), *cache.glob("*.tab")]:
            path.unlink()
        _run(plan, rng, 256)  # the loaded object
        clear_compiled_memo()
        again = compile_plan(gen.program)  # the disk hit: dlopen only
        assert again.so_path == plan.so_path
        assert again.artifact_info() == plan.artifact_info()
        assert not list(cache.glob("codelet_*"))  # a hit builds nothing
        _run(again, rng, 256)

        # 2^9 = 16 x 32 needs the same size-16 codelet and a size-32 one
        neighbour = compile_plan(generate_fft(512, nu=4).program)
        rebuilt = sorted(p.name for p in cache.glob("codelet_*.o"))
        assert len(rebuilt) == 2 and objects[0] in rebuilt
        assert plan.codelets[0] in neighbour.codelets
        _run(neighbour, rng, 512)
