"""The execution-backend registry: resolution, fallback, equivalence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.codegen.registry as reg
from repro.codegen.registry import (
    BACKEND_NAMES,
    BackendUnavailable,
    ExecutionBackend,
    NumpyBackend,
    SimulatorBackend,
    available_backends,
    build_stages,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp.runtime import SequentialRuntime
from repro.spl.expr import COMPLEX


def _stack(rng, b, n):
    return (
        rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    ).astype(COMPLEX)


class TestRegistry:
    def test_canonical_backends_are_registered(self):
        assert set(BACKEND_NAMES) <= set(registered_backends())

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()
        assert NumpyBackend().available()

    def test_get_backend_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="numpy"):
            get_backend("fpga")

    def test_register_custom_backend(self):
        class Custom(ExecutionBackend):
            name = "custom-test"

            def build_stages(self, program, codelet_max=32):
                return NumpyBackend().build_stages(program, codelet_max)

        try:
            register_backend(Custom())
            assert "custom-test" in registered_backends()
            assert resolve_backend("custom-test").name == "custom-test"
        finally:
            reg._REGISTRY.pop("custom-test", None)


class TestResolution:
    def test_resolve_unknown_falls_back_to_numpy(self):
        reg._WARNED.discard("nonesuch")
        with pytest.warns(RuntimeWarning):
            assert resolve_backend("nonesuch").name == "numpy"

    def test_resolve_unknown_strict_raises(self):
        with pytest.raises(BackendUnavailable):
            resolve_backend("nonesuch", strict=True)

    def test_resolve_unavailable_strict_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        with pytest.raises(BackendUnavailable, match="available"):
            resolve_backend("compiled", strict=True)

    def test_resolve_unavailable_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        reg._WARNED.discard("compiled")
        with pytest.warns(RuntimeWarning):
            assert resolve_backend("compiled").name == "numpy"

    def test_fallback_warns_only_once_per_process(self, monkeypatch):
        import warnings

        monkeypatch.setenv("REPRO_NO_CC", "1")
        reg._WARNED.discard("compiled")
        with pytest.warns(RuntimeWarning):
            resolve_backend("compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_backend("compiled")  # second ask: silent

    def test_no_cc_hides_compiled_from_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert "compiled" not in available_backends()
        assert "numpy" in available_backends()


class TestEquivalence:
    @pytest.mark.parametrize("n,threads", [(64, 1), (256, 2)])
    def test_simulator_matches_numpy_backend(self, n, threads, rng):
        gen = generate_fft(n, threads=threads)
        X = _stack(rng, 3, n)
        outs = {}
        for backend in (NumpyBackend(), SimulatorBackend()):
            stages = backend.build_stages(gen.program)
            Y, _ = run_batched(stages, n, X, SequentialRuntime())
            outs[backend.name] = Y
        np.testing.assert_allclose(
            outs["simulator"], outs["numpy"], atol=1e-9 * n, rtol=1e-9
        )
        np.testing.assert_allclose(
            outs["numpy"], np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_simulator_preserves_stage_structure(self):
        gen = generate_fft(256, threads=2)
        stages = SimulatorBackend().build_stages(gen.program)
        assert len(stages) == len(gen.program.stages)
        for plan_stage, built in zip(gen.program.stages, stages):
            assert built.parallel == plan_stage.parallel
            assert built.needs_barrier == plan_stage.needs_barrier

    def test_module_level_build_stages(self, rng):
        n = 128
        gen = generate_fft(n)
        stages = build_stages(gen.program, "numpy")
        X = _stack(rng, 2, n)
        Y, _ = run_batched(stages, n, X, SequentialRuntime())
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_describe_reports_identity(self):
        assert NumpyBackend().describe()["backend"] == "numpy"
        d = get_backend("compiled").describe()
        assert d["backend"] == "compiled"


def _oracle(backend: str, n: int = 64, threads: int = 1):
    """The hunt's oracle stack on one sequential DFT case of ``backend``."""
    from repro.hunt import HuntCase, run_oracle

    return run_oracle(HuntCase(n=n, req_threads=threads, mu=4,
                               strategy="balanced", batch=3, backend=backend))


class TestCheckBackendProgram:
    """A backend's stages under the oracle stack ``repro check`` runs."""

    def test_numpy_differential_is_clean(self):
        assert _oracle("numpy", n=256, threads=2).ok

    def test_simulator_differential_is_clean(self):
        assert _oracle("simulator", threads=2).ok

    def test_broken_backend_is_caught(self):
        class Broken(ExecutionBackend):
            name = "broken-test"

            def build_stages(self, program, codelet_max=32, fallback=True):
                stages = NumpyBackend().build_stages(program, codelet_max)
                victim = stages[0]

                def bad(proc, src, dst, _w=victim.work):
                    _w(proc, src, dst)
                    dst[0] += 1.0  # corrupt one output element

                stages[0] = dataclasses.replace(victim, work=bad)
                return stages

        try:
            register_backend(Broken())
            v = _oracle("broken-test")
            assert v.kind == "numeric" and "diverges" in v.detail, v
        finally:
            reg._REGISTRY.pop("broken-test", None)

    def test_whole_plan_call_disagreeing_with_its_stages_is_caught(self):
        """Both walks are certified: the one call the sequential runtime
        makes and the staged walk the pools make.  Here the stages are
        right and only the whole-plan call is off by one element, by far
        less than the DFT tolerance."""
        from repro.smp.runtime import FusedStages

        class Skewed(ExecutionBackend):
            name = "skewed-test"

            def build_stages(self, program, codelet_max=32, fallback=True):
                stages = NumpyBackend().build_stages(program, codelet_max)

                def whole(X, writable, out=None):
                    Y = SequentialRuntime().execute(
                        stages, X.reshape(-1), X.size
                    )[0].reshape(X.shape)
                    Y[1, 5] += 1e-12
                    if out is None:
                        return Y
                    out[...] = Y
                    return out

                return FusedStages(stages, whole)

        try:
            register_backend(Skewed())
            v = _oracle("skewed-test")
            assert v.kind == "numeric" and v.oracle.startswith(
                "whole-vs-walk:"), v
            assert "diverges from its stage walk at [1, 5]" in v.detail
        finally:
            reg._REGISTRY.pop("skewed-test", None)

    def test_stage_structure_change_is_a_build_error(self):
        """A backend that drops a barrier the plan keeps voids the
        checker's certificate for what it runs."""
        class Unfenced(ExecutionBackend):
            name = "unfenced-test"

            def build_stages(self, program, codelet_max=32, fallback=True):
                return [
                    dataclasses.replace(st, needs_barrier=False)
                    for st in NumpyBackend().build_stages(program, codelet_max)
                ]

        try:
            register_backend(Unfenced())
            v = _oracle("unfenced-test", n=256, threads=2)
            assert v.kind == "build-error", v
            assert v.oracle == "structure:unfenced-test"
            assert "needs_barrier mismatch" in v.detail
        finally:
            reg._REGISTRY.pop("unfenced-test", None)
