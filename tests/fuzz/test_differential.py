"""Differential fuzzing: generated FFT programs vs ``np.fft.fft``.

A seeded random sweep over the whole configuration space — size, thread
count (including non-powers-of-two, clamped by ``feasible_threads``),
vector length µ, breakdown strategy, batch shape — executed on the
sequential, pthreads, and multiprocess runtimes and compared against
numpy to 1e-10 absolute (measured headroom is ~2e-12 at n=512).

``REPRO_SEED`` reseeds the sweep; the default (0) makes it a fixed
regression battery.  The case sampler itself lives in
:func:`repro.hunt.gen.sample_config_tuples` — one seeded sampler shared
with the ``repro hunt`` sweep, so the two lanes can never drift apart.
"""

import numpy as np
import pytest

from repro.check import check_program
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.frontend import feasible_threads, generate_fft, spiral_formula
from repro.hunt.gen import sample_cases, sample_config_tuples
from repro.mp import PlanSpec, ProcessPoolRuntime, segment_stats
from repro.seeding import default_seed, derive_seed
from repro.serve.batch_exec import run_batched
from repro.smp import PThreadsRuntime, SequentialRuntime
from repro.spl import is_fully_optimized

ATOL = 1e-10

N_CASES = 32  # sampled from the ~750-combo cross product

CASES = sample_config_tuples(N_CASES)

#: multiprocess sweep: every sampled case whose clamped thread count is
#: parallel, bounded so the (expensive) process pools stay few
MP_CASES = [
    c for c in CASES if feasible_threads(c[0], c[1], c[2]) > 1
][:10]

_POOLS: dict = {}
_MP_POOLS: dict = {}
_PROGRAMS: dict = {}


def _pool(threads: int) -> PThreadsRuntime:
    if threads not in _POOLS:
        _POOLS[threads] = PThreadsRuntime(threads)
    return _POOLS[threads]


def _mp_pool(procs: int) -> ProcessPoolRuntime:
    if procs not in _MP_POOLS:
        _MP_POOLS[procs] = ProcessPoolRuntime(procs)
    return _MP_POOLS[procs]


def _program(n, threads, mu, strategy):
    key = (n, threads, mu, strategy)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = generate_fft(
            n, threads=threads, mu=mu, strategy=strategy
        )
    return _PROGRAMS[key]


def teardown_module(module):
    for rt in _POOLS.values():
        rt.close()
    _POOLS.clear()
    for rt in _MP_POOLS.values():
        rt.close()
    _MP_POOLS.clear()
    _PROGRAMS.clear()
    stats = segment_stats()
    assert stats["live"] == 0, f"leaked shared-memory segments: {stats}"


@pytest.mark.parametrize(
    "n,req_threads,mu,strategy,batch",
    CASES,
    ids=[f"n{n}-p{p}-mu{mu}-{s}-b{b}" for n, p, mu, s, b in CASES],
)
def test_differential_against_numpy(n, req_threads, mu, strategy, batch):
    threads = feasible_threads(n, req_threads, mu)
    gen = _program(n, threads, mu, strategy)
    rng = np.random.default_rng(
        derive_seed(default_seed(), "fuzz", n, req_threads, mu, strategy,
                    batch)
    )
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.fft.fft(x)

    # sequential runtime
    y_seq = gen.run(x.copy())
    np.testing.assert_allclose(y_seq, ref, atol=ATOL, rtol=0)

    # pthreads pool sized to the plan (identical bits modulo fp reassoc)
    if threads > 1:
        y_par = gen.run(x.copy(), runtime=_pool(threads))
        np.testing.assert_allclose(y_par, ref, atol=ATOL, rtol=0)

    # batched (b, n) execution of the same printed stages
    X = np.stack(
        [x]
        + [
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(batch - 1)
        ]
    )
    runtime = _pool(threads) if threads > 1 else SequentialRuntime()
    Y, _ = run_batched(gen.stages, n, X, runtime)
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=ATOL, rtol=0)


@pytest.mark.parametrize(
    "n,req_threads,mu,strategy,batch",
    MP_CASES,
    ids=[f"n{n}-p{p}-mu{mu}-{s}-b{b}" for n, p, mu, s, b in MP_CASES],
)
def test_differential_process_pool(n, req_threads, mu, strategy, batch):
    """The multiprocess runtime agrees with numpy on the same sweep.

    Workers compile the PlanSpec locally, so this also fuzzes the
    determinism claim: master and workers must produce the identical
    plan for every (n, threads, mu, strategy) drawn.
    """
    threads = feasible_threads(n, req_threads, mu)
    pool = _mp_pool(threads)
    spec = PlanSpec(n=n, threads=threads, mu=mu, strategy=strategy)
    rng = np.random.default_rng(
        derive_seed(default_seed(), "fuzz-mp", n, req_threads, mu, strategy,
                    batch)
    )
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y, _ = pool.execute_spec(spec, x)
    np.testing.assert_allclose(y, np.fft.fft(x), atol=ATOL, rtol=0)

    X = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    Y, _ = pool.execute_spec(spec, X)
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=ATOL, rtol=0)


@pytest.mark.parametrize(
    "n,req_threads,mu,strategy,batch",
    CASES,
    ids=[f"n{n}-p{p}-mu{mu}-{s}-b{b}" for n, p, mu, s, b in CASES],
)
def test_structural_verdict_implies_dynamic(n, req_threads, mu, strategy,
                                            batch):
    """Definition 1 differential: structural checker vs dynamic replay.

    The structural verdict on the formula must imply the dynamic verdict
    on its lowered plan; the dynamic verdict must hold on every sampled
    configuration regardless (the pipeline only emits clean plans).
    """
    threads = feasible_threads(n, req_threads, mu)
    gen = _program(n, threads, mu, strategy)
    report = check_program(gen.program, mu)
    assert report.ok, report.render_text()
    if threads > 1:
        f = spiral_formula(n, threads, mu, strategy)
        if is_fully_optimized(f, threads, mu):
            assert report.ok  # structural OK may never contradict dynamic


#: parallel cases where a mu-misaligned split is line-visible
SABOTAGE_CASES = sorted(
    {
        (n, feasible_threads(n, p, mu), mu, s)
        for n, p, mu, s, _ in CASES
        if mu >= 2 and feasible_threads(n, p, mu) > 1
    }
)[:6]


@pytest.mark.parametrize(
    "n,threads,mu,strategy",
    SABOTAGE_CASES,
    ids=[f"n{n}-t{t}-mu{mu}-{s}" for n, t, mu, s in SABOTAGE_CASES],
)
def test_sabotage_flips_only_the_dynamic_verdict(n, threads, mu, strategy):
    """Seeded sabotage is invisible structurally but caught dynamically.

    The fault plane mutates the *plan* (after lowering), so the formula
    still satisfies Definition 1 — only the dynamic replay can notice.
    """
    gen = _program(n, threads, mu, strategy)
    spec = FaultSpec("check.misaligned_split", rate=1.0, max_fires=1)
    with fault_plan(FaultPlan([spec])):
        report = check_program(gen.program, mu)
    assert not report.ok
    assert any(f.kind == "false-sharing" for f in report.errors)
    f = spiral_formula(n, threads, mu, strategy)
    assert is_fully_optimized(f, threads, mu)
    # and the unsabotaged plan is clean again (no cache poisoning)
    assert check_program(gen.program, mu).ok


def test_sweep_is_deterministic():
    """The sampled case list replays identically for a fixed seed."""
    assert sample_config_tuples(N_CASES) == CASES


def test_hunt_and_fuzz_sweeps_share_determinism():
    """Both sweeps replay under one ``REPRO_SEED`` (shared sampler).

    The fuzz battery's tuples and the hunt's :class:`HuntCase` sweep
    derive from the same :mod:`repro.seeding` stream machinery; for any
    explicit seed each is a pure function of that seed.
    """
    assert sample_config_tuples(8, seed=123) == sample_config_tuples(
        8, seed=123
    )
    assert sample_cases(8, seed=123) == sample_cases(8, seed=123)
    # distinct labels decorrelate the two sweeps even at the same seed
    tuples = [
        (c.n, c.req_threads, c.mu, c.strategy, c.batch)
        for c in sample_cases(8, seed=123)
    ]
    assert tuples != sample_config_tuples(8, seed=123)
    # and the default-seed path answers to REPRO_SEED alone
    assert sample_config_tuples(N_CASES) == CASES


def test_non_power_of_two_requests_clamp_feasibly():
    """Thread clamping: (t*mu)^2 must divide n for the chosen t."""
    for n, req, mu, _, _ in CASES:
        t = feasible_threads(n, req, mu)
        assert 1 <= t <= req
        if t > 1:
            assert n % ((t * mu) ** 2) == 0
