"""The hunt case sampler: determinism, pools, and round-trips."""

import pytest

from repro.frontend import feasible_threads
from repro.hunt.gen import (
    BACKENDS,
    MUS,
    RUNTIMES,
    SIZES,
    STRATEGIES,
    THREAD_REQUESTS,
    HuntCase,
    sample_cases,
)


def test_sample_cases_deterministic_per_seed():
    a = sample_cases(16, seed=42)
    assert a == sample_cases(16, seed=42)
    assert a != sample_cases(16, seed=43)


def test_sample_cases_draw_from_declared_pools():
    for c in sample_cases(64, seed=5, backends=BACKENDS):
        assert c.n in SIZES
        assert c.req_threads in THREAD_REQUESTS
        assert c.mu in MUS
        assert c.strategy in STRATEGIES
        assert 1 <= c.batch <= 4
        assert c.backend in BACKENDS
        assert c.runtime in RUNTIMES


def test_sample_cases_rejects_unknown_pools():
    with pytest.raises(ValueError, match="unknown backend"):
        sample_cases(1, backends=("cuda",))
    with pytest.raises(ValueError, match="unknown runtime"):
        sample_cases(1, runtimes=("fiber",))


def test_sample_cases_prefix_stable():
    """A longer sweep extends a shorter one (one stream, one draw order)."""
    assert sample_cases(8, seed=9) == sample_cases(24, seed=9)[:8]


def test_non_power_of_two_requests_clamp_feasibly():
    """Thread clamping: (t*mu)^2 must divide n for the chosen t."""
    for c in sample_cases(64, seed=5):
        t = c.threads
        assert 1 <= t <= c.req_threads
        if t > 1:
            assert c.n % ((t * c.mu) ** 2) == 0


def test_case_threads_is_the_eq14_clamp():
    c = HuntCase(n=64, req_threads=6, mu=2, strategy="balanced", batch=1)
    assert c.threads == feasible_threads(64, 6, 2)
    assert (c.threads * c.mu) ** 2 % 1 == 0
    assert 64 % ((c.threads * c.mu) ** 2) == 0


def test_case_json_round_trip():
    c = HuntCase(
        n=128, req_threads=3, mu=4, strategy="radix2", batch=2,
        backend="simulator", runtime="process",
    )
    assert HuntCase.from_json(c.to_json()) == c


def test_case_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown HuntCase fields"):
        HuntCase.from_json({"n": 16, "req_threads": 1, "mu": 1,
                            "strategy": "balanced", "batch": 1,
                            "gpu": True})


def test_with_replaces_fields():
    c = HuntCase(n=64, req_threads=4, mu=2, strategy="balanced", batch=2)
    d = c.with_(n=32, runtime="pthreads")
    assert (d.n, d.runtime) == (32, "pthreads")
    assert (d.req_threads, d.mu, d.strategy, d.batch) == (4, 2, "balanced", 2)


class TestWisdomProvenance:
    """Tuned-plan provenance: the fuzzer hammers production's plans."""

    @pytest.fixture
    def wisdom(self, tmp_path):
        from repro.wisdom import Wisdom

        return Wisdom(tmp_path / "w.json")

    def test_default_provenance_is_generated(self):
        c = HuntCase(n=64, req_threads=1, mu=4, strategy="radix2", batch=1)
        assert c.provenance == "generated"
        # generated cases serialize exactly as before the tuning PR
        assert "provenance" not in c.to_json()

    def test_wisdom_provenance_round_trips(self):
        c = HuntCase(n=64, req_threads=1, mu=4, strategy="radix2", batch=1,
                     provenance="wisdom")
        data = c.to_json()
        assert data["provenance"] == "wisdom"
        assert HuntCase.from_json(data) == c
        assert c.label().endswith("-wisdom")

    def test_sampler_adopts_ranked_strategy(self, wisdom):
        baseline = sample_cases(12, seed=42)
        # rank every lane the baseline draw touches
        for c in baseline:
            wisdom.record_tuning(
                c.n, c.threads, c.mu, c.backend, c.runtime,
                {"best": {"strategy": "radix2", "min_leaf": 16}},
            )
        tuned = sample_cases(12, seed=42, wisdom=wisdom)
        assert all(c.provenance == "wisdom" for c in tuned)
        assert all(c.strategy == "radix2" for c in tuned)
        # only (strategy, provenance) moved; the draw stream did not
        for b, t in zip(baseline, tuned):
            assert (b.n, b.req_threads, b.mu, b.batch, b.backend,
                    b.runtime) == (t.n, t.req_threads, t.mu, t.batch,
                                   t.backend, t.runtime)

    def test_unranked_lanes_stay_generated(self, wisdom):
        # empty wisdom: nothing changes
        assert sample_cases(12, seed=42, wisdom=wisdom) \
            == sample_cases(12, seed=42)

    def test_unknown_ranked_strategy_is_ignored(self, wisdom):
        baseline = sample_cases(4, seed=42)
        c = baseline[0]
        wisdom.record_tuning(
            c.n, c.threads, c.mu, c.backend, c.runtime,
            {"best": {"strategy": "does-not-exist"}},
        )
        tuned = sample_cases(4, seed=42, wisdom=wisdom)
        assert tuned == baseline
