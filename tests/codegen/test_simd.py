"""SIMD-vectorized compiled codelets: differential correctness + plumbing.

The satellite contract of the vectorization PR, in four layers:

* **differential** — the compiled ν-way plans agree index-for-index with
  the compiled scalar plan, the NumPy backend on the same vectorized
  plan, and ``np.fft.fft``, across the whole small-transform range and
  the awkward edges (ν ∤ µ, non-power-of-two thread requests, batching);
* **fallback seam** — inadmissible ν degrades to the scalar plan with a
  once-per-process warning and a ``vector.fallback`` trace counter, and
  ``REPRO_NO_SIMD=1`` forces scalar plans with identical numerics;
* **plumbing** — ν flows through ``PlanSpec``/``PlanKey``/``ServeConfig``
  /``candidate_space`` exactly like the other plan coordinates;
* **CLI** — ``repro check --backend compiled --nu 2`` certifies a
  vectorized plan end to end.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.frontend as frontend
from repro.codegen.compiled_backend import compile_plan, compiled_available
from repro.frontend import feasible_threads, generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp.runtime import SequentialRuntime
from repro.spl.expr import COMPLEX

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)


def _stack(rng, b, n):
    return (
        rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    ).astype(COMPLEX)


def _run_compiled(program, X):
    stages = compile_plan(program).plan_stages()
    Y, _ = run_batched(stages, program.size, X, SequentialRuntime())
    return Y


def _run_numpy(program, X):
    from repro.codegen.registry import NumpyBackend

    stages = NumpyBackend().build_stages(program)
    Y, _ = run_batched(stages, program.size, X, SequentialRuntime())
    return Y


def _plan_nus(gen):
    return sorted({lp.nu for st in gen.program.stages for lp in st.loops})


@needs_cc
class TestDifferentialSimd:
    """compiled(ν) vs compiled(scalar) vs numpy vs np.fft, elementwise."""

    @pytest.mark.parametrize("k", [4, 5, 6, 8, 10, 12])
    @pytest.mark.parametrize("nu", [2, 4])
    def test_four_way_agreement(self, rng, k, nu):
        n = 1 << k
        X = _stack(rng, 3, n)
        ref = np.fft.fft(X, axis=-1)
        tol = dict(atol=1e-9 * n, rtol=1e-9)

        vec = generate_fft(n, nu=nu)
        assert max(_plan_nus(vec)) == nu, "plan did not vectorize"
        scal = generate_fft(n)
        assert _plan_nus(scal) == [1]

        np.testing.assert_allclose(_run_compiled(vec.program, X), ref, **tol)
        np.testing.assert_allclose(_run_compiled(scal.program, X), ref, **tol)
        # the NumPy backend runs the *same* vectorized plan: backend
        # disagreement on identical stages is exactly what this catches
        np.testing.assert_allclose(_run_numpy(vec.program, X), ref, **tol)

    @pytest.mark.parametrize("req_threads", [2, 3])
    def test_threaded_plans_with_thread_clamping(self, rng, req_threads):
        n, nu = 4096, 2
        t = feasible_threads(n, req_threads, 4)
        gen = generate_fft(n, threads=t, nu=nu)
        X = _stack(rng, 2, n)
        np.testing.assert_allclose(
            _run_compiled(gen.program, X),
            np.fft.fft(X, axis=-1),
            atol=1e-9 * n, rtol=1e-9,
        )

    def test_batched_stack(self, rng):
        n = 256
        gen = generate_fft(n, nu=4)
        X = _stack(rng, 7, n)
        np.testing.assert_allclose(
            _run_compiled(gen.program, X),
            np.fft.fft(X, axis=-1),
            atol=1e-9 * n, rtol=1e-9,
        )

    def test_nu_not_dividing_mu_devectorizes(self, rng):
        # vec(4) against mu=2 line permutations is inadmissible: the
        # frontend must hand back the scalar plan, not a broken one
        n = 256
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gen = generate_fft(n, threads=2, mu=2, nu=4)
        assert _plan_nus(gen) == [1]
        X = _stack(rng, 2, n)
        np.testing.assert_allclose(
            _run_compiled(gen.program, X),
            np.fft.fft(X, axis=-1),
            atol=1e-9 * n, rtol=1e-9,
        )

    def test_forced_scalar_lane_is_bit_identical(self, rng, monkeypatch):
        # the CI forced-scalar lane: REPRO_NO_SIMD=1 must produce the
        # exact scalar plan, and its compiled output must be
        # bit-identical to the plan generated without any nu request
        n = 1024
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        forced = generate_fft(n, nu=4)
        assert _plan_nus(forced) == [1]
        monkeypatch.delenv("REPRO_NO_SIMD")
        plain = generate_fft(n)
        X = _stack(rng, 2, n)
        got = _run_compiled(forced.program, X)
        want = _run_compiled(plain.program, X)
        np.testing.assert_array_equal(got, want)


class TestVecFallbackSeam:
    """vectorize_formula degrades deterministically, warns once, counts."""

    def test_inadmissible_nu_warns_once_and_degrades(self, monkeypatch):
        monkeypatch.setattr(frontend, "_VEC_WARNED", False)
        with pytest.warns(RuntimeWarning, match=r"vec\(4\)"):
            gen = generate_fft(256, threads=2, mu=2, nu=4)
        assert _plan_nus(gen) == [1]
        # second degradation in the same process is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gen2 = generate_fft(256, threads=2, mu=2, nu=4)
        assert _plan_nus(gen2) == [1]

    def test_fallback_counts_on_the_tracer(self, monkeypatch):
        from repro.trace import Tracer, tracing

        monkeypatch.setattr(frontend, "_VEC_WARNED", True)
        with tracing(Tracer()) as tr:
            generate_fft(256, threads=2, mu=2, nu=4)
        assert tr.counter_total("vector.fallback") == 1

    def test_no_simd_counts_on_the_tracer(self, monkeypatch):
        from repro.trace import Tracer, tracing

        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        with tracing(Tracer()) as tr:
            gen = generate_fft(64, nu=2)
        assert _plan_nus(gen) == [1]
        assert tr.counter_total("vector.no_simd") == 1


class TestNuPlumbing:
    """ν is a plan coordinate everywhere a plan is named."""

    def test_plan_key_defaults_and_label(self):
        from repro.serve.plan_cache import PlanKey

        scalar = PlanKey(256)
        assert scalar.nu == 1
        assert scalar.label() == "n256:t1:mu4:balanced"
        vec = PlanKey(256, 2, 4, "balanced", 4)
        assert vec.label() == "n256:t2:mu4:balanced:v4"
        assert scalar != vec

    def test_plan_spec_carries_and_validates_nu(self):
        from repro.mp.spec import PlanSpec
        from repro.serve.plan_cache import PlanKey

        spec = PlanSpec(n=64, nu=2)
        assert spec.nu == 2
        with pytest.raises(ValueError):
            PlanSpec(n=64, nu=0)
        key = PlanKey(64, 1, 4, "balanced", 2)
        assert PlanSpec.from_plan_key(key).nu == 2

    def test_candidate_space_gates_nu_on_backend(self):
        from repro.tune.measure import NU_CHOICES, candidate_space

        compiled = {c.nu for c in candidate_space(backend="compiled")}
        assert compiled == set(NU_CHOICES)
        interp = {c.nu for c in candidate_space(backend="numpy")}
        assert interp == {1}

    def test_candidate_label_shows_nu(self):
        from repro.tune.measure import Candidate

        assert "/v4" in Candidate("balanced", 32, nu=4).label
        assert "/v" not in Candidate("balanced", 32).label

    def test_serve_config_nu_keys_the_cache(self):
        from repro.serve.service import FFTService, ServeConfig

        with FFTService(ServeConfig(nu=2)) as svc:
            x = np.arange(64).astype(COMPLEX)
            y = svc.submit(x).result(timeout=30)
            np.testing.assert_allclose(
                y, np.fft.fft(x), atol=1e-9 * 64, rtol=1e-9
            )
            labels = [k.label() for k in svc.plans.keys()]
            assert labels == ["n64:t1:mu4:balanced:v2"]
            # per-request override falls back to a separate scalar entry
            svc.submit(x, nu=1).result(timeout=30)
            assert "n64:t1:mu4:balanced" in [
                k.label() for k in svc.plans.keys()
            ]
            assert svc.stats()["config"]["nu"] == 2

    def test_wisdom_is_bypassed_for_vector_keys(self, tmp_path):
        # a wisdom file with no ranking for the lane substitutes nothing:
        # a ν>1 key builds the ν-way plan it asked for
        from repro.serve.plan_cache import PlanCache, PlanKey
        from repro.wisdom import Wisdom

        wisdom = Wisdom(str(tmp_path / "w.json"))
        cache = PlanCache(capacity=4, wisdom=wisdom)
        plan = cache.get(PlanKey(64, 1, 4, "balanced", 2))
        assert max(
            lp.nu for st in plan.program.stages for lp in st.loops
        ) == 2


@needs_cc
class TestSimdCli:
    def test_check_certifies_a_vectorized_compiled_plan(self, capsys):
        from repro.cli import main

        rc = main([
            "check", "--kmin", "6", "--kmax", "6", "--threads", "1",
            "--mu", "4", "--nu", "2", "--backend", "compiled",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "differential OK" in out
