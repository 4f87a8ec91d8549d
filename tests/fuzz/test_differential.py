"""Differential fuzzing: generated FFT programs vs ``np.fft.fft``.

A seeded random sweep over the whole configuration space — size, thread
count (including non-powers-of-two, clamped by ``feasible_threads``),
vector length µ, breakdown strategy, batch shape — on the sequential,
pthreads, and multiprocess runtimes.  Every case runs through the hunt's
oracle stack (:func:`repro.hunt.oracles.run_oracle`), the one verifier
``repro hunt`` and ``repro check`` also use, held here to 1e-10 absolute
(measured headroom is ~2e-12 at n=512).

``REPRO_SEED`` reseeds the sweep; the default (0) makes it a fixed
regression battery.  The cases are :func:`repro.hunt.gen.sample_cases`
draws under their own label, on one runtime pool so the five base
dimensions keep the stream this battery has always drawn.
"""

import pytest

from repro.check import check_program
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.frontend import feasible_threads, spiral_formula
from repro.hunt import ExecutorPools, HuntCase, run_oracle, sample_cases
from repro.mp import segment_stats
from repro.spl import is_fully_optimized

ATOL = 1e-10

N_CASES = 32  # sampled from the ~750-combo cross product


def _sample(count, seed=None):
    """The battery's ``(n, req_threads, mu, strategy, batch)`` draws."""
    return [
        (c.n, c.req_threads, c.mu, c.strategy, c.batch)
        for c in sample_cases(count, seed=seed, runtimes=("sequential",),
                              label="fuzz-sweep", nus=(1,))
    ]


CASES = _sample(N_CASES)

#: multiprocess sweep: every sampled case whose clamped thread count is
#: parallel, bounded so the (expensive) process pools stay few
MP_CASES = [
    c for c in CASES if feasible_threads(c[0], c[1], c[2]) > 1
][:10]

_POOLS = ExecutorPools()
_VERDICTS: dict = {}


def _verdict(case: HuntCase):
    """The oracle stack's verdict on ``case`` (cached across tests)."""
    if case not in _VERDICTS:
        _VERDICTS[case] = run_oracle(case, pools=_POOLS, atol=ATOL)
    return _VERDICTS[case]


def teardown_module(module):
    _POOLS.close()
    _VERDICTS.clear()
    stats = segment_stats()
    assert stats["live"] == 0, f"leaked shared-memory segments: {stats}"


@pytest.mark.parametrize(
    "n,req_threads,mu,strategy,batch",
    CASES,
    ids=[f"n{n}-p{p}-mu{mu}-{s}-b{b}" for n, p, mu, s, b in CASES],
)
def test_differential_against_numpy(n, req_threads, mu, strategy, batch):
    """The (batch, n) stack agrees with numpy on both in-process runtimes."""
    case = HuntCase(n, req_threads, mu, strategy, batch)
    for runtime in ("sequential", "pthreads"):
        v = _verdict(case.with_(runtime=runtime))
        assert v.ok, str(v)


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
    case = HuntCase(n, req_threads, mu, strategy, batch, runtime="process")
    v = _verdict(case)
    assert v.ok, str(v)


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
    v = _verdict(HuntCase(n, req_threads, mu, strategy, batch))
    assert v.ok, str(v)
    report = v.report
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
    v = _verdict(HuntCase(n, threads, mu, strategy, 1))
    assert v.ok, str(v)
    spec = FaultSpec("check.misaligned_split", rate=1.0, max_fires=1)
    with fault_plan(FaultPlan([spec])):
        report = check_program(v.program, mu)
    assert not report.ok
    assert any(f.kind == "false-sharing" for f in report.errors)
    f = spiral_formula(n, threads, mu, strategy)
    assert is_fully_optimized(f, threads, mu)
    # and the unsabotaged plan is clean again (no cache poisoning)
    assert check_program(v.program, mu).ok


def test_sweep_is_deterministic():
    """The sampled case list replays identically for a fixed seed."""
    assert _sample(N_CASES) == CASES


def test_hunt_and_fuzz_sweeps_share_determinism():
    """Both sweeps replay under one ``REPRO_SEED`` (shared sampler).

    The fuzz battery's tuples and the hunt's :class:`HuntCase` sweep
    derive from the same :mod:`repro.seeding` stream machinery; for any
    explicit seed each is a pure function of that seed.
    """
    assert _sample(8, seed=123) == _sample(8, seed=123)
    assert sample_cases(8, seed=123) == sample_cases(8, seed=123)
    # distinct labels decorrelate the two sweeps even at the same seed
    tuples = [
        (c.n, c.req_threads, c.mu, c.strategy, c.batch)
        for c in sample_cases(8, seed=123)
    ]
    assert tuples != _sample(8, seed=123)
    # and the default-seed path answers to REPRO_SEED alone
    assert _sample(N_CASES) == CASES


def test_non_power_of_two_requests_clamp_feasibly():
    """Thread clamping: (t*mu)^2 must divide n for the chosen t."""
    for n, req, mu, _, _ in CASES:
        t = feasible_threads(n, req, mu)
        assert 1 <= t <= req
        if t > 1:
            assert n % ((t * mu) ** 2) == 0
