"""Batched execution must match numpy.fft row-for-row on every runtime.

The stages under test are the NumPy backend's — the printed Python program
of :mod:`repro.codegen.python_backend` — built through the registry, the way
a compiler-less host (``REPRO_NO_CC=1``) serves.
"""

import numpy as np
import pytest

from repro.codegen import resolve_backend
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp import PThreadsRuntime, SequentialRuntime


def _numpy_stages(gen):
    return resolve_backend("numpy").build_stages(gen.program)


def _stack(b, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))


@pytest.mark.parametrize("n,threads,mu", [
    (64, 1, 4),
    (256, 1, 4),
    (64, 2, 2),
    (256, 2, 4),
    (1024, 2, 4),
])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_matches_fft_sequential(n, threads, mu, batch):
    gen = generate_fft(n, threads=threads, mu=mu)
    stages = _numpy_stages(gen)
    X = _stack(batch, n)
    Y, stats = run_batched(stages, n, X, SequentialRuntime())
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
    assert Y.shape == X.shape


def test_batched_on_pthreads_pool():
    n, threads = 256, 2
    gen = generate_fft(n, threads=threads, mu=4)
    stages = _numpy_stages(gen)
    X = _stack(6, n, seed=1)
    with PThreadsRuntime(threads) as pool:
        Y, stats = run_batched(stages, n, X, pool)
        # pool reuse across requests
        Y2, _ = run_batched(stages, n, X * 2, pool)
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
    np.testing.assert_allclose(Y2, 2 * np.fft.fft(X, axis=-1), atol=1e-6)
    assert stats.threads_spawned == 0  # persistent pool


def test_batched_preserves_schedule_structure():
    gen = generate_fft(256, threads=2, mu=4)
    stages = _numpy_stages(gen)
    assert len(stages) == len(gen.program.stages)
    for b, s in zip(stages, gen.program.stages):
        assert b.parallel == s.parallel
        assert b.needs_barrier == s.needs_barrier
        assert b.nprocs == len(list(s.shares()))
        assert b.name == s.name


def test_one_dim_input_promoted():
    gen = generate_fft(64, threads=1, mu=4)
    stages = _numpy_stages(gen)
    x = _stack(1, 64)[0]
    Y, _ = run_batched(stages, 64, x, SequentialRuntime())
    np.testing.assert_allclose(Y[0], np.fft.fft(x), atol=1e-6)


def test_shape_mismatch_rejected():
    gen = generate_fft(64, threads=1, mu=4)
    stages = _numpy_stages(gen)
    with pytest.raises(ValueError, match="stack"):
        run_batched(stages, 64, _stack(2, 32), SequentialRuntime())
