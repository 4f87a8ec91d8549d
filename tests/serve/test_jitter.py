"""Seeded-replay contract of the retry-jitter RNG.

``jitter_rng`` must derive from ``REPRO_SEED`` (not OS entropy) so a
chaos run's backoff schedule replays exactly under the same seed, while
distinct clients under one seed still get decorrelated streams.
"""

import pytest

from repro.seeding import SEED_ENV_VAR
from repro.serve import RetryPolicy, jitter_rng


def backoffs(policy, rng, attempts=6, retry_after=None):
    return [policy.backoff_s(a, retry_after, rng) for a in range(attempts)]


class TestSeededReplay:
    def test_same_seed_same_client_replays_exactly(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        pol = RetryPolicy()
        a = backoffs(pol, jitter_rng(pol, client_index=0))
        b = backoffs(pol, jitter_rng(pol, client_index=0))
        assert a == b

    def test_different_seed_different_schedule(self, monkeypatch):
        pol = RetryPolicy()
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        a = backoffs(pol, jitter_rng(pol, client_index=0))
        monkeypatch.setenv(SEED_ENV_VAR, "5678")
        b = backoffs(pol, jitter_rng(pol, client_index=0))
        assert a != b

    def test_sibling_clients_are_decorrelated(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        pol = RetryPolicy()
        a = backoffs(pol, jitter_rng(pol, client_index=0))
        b = backoffs(pol, jitter_rng(pol, client_index=1))
        assert a != b

    def test_unset_seed_uses_documented_fallback(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        pol = RetryPolicy()
        a = backoffs(pol, jitter_rng(pol, client_index=3))
        b = backoffs(pol, jitter_rng(pol, client_index=3))
        assert a == b

    def test_explicit_policy_seed_wins_over_env(self, monkeypatch):
        pol = RetryPolicy(seed=99)
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        a = backoffs(pol, jitter_rng(pol, client_index=0))
        monkeypatch.setenv(SEED_ENV_VAR, "5678")
        b = backoffs(pol, jitter_rng(pol, client_index=0))
        assert a == b

    def test_auto_index_allocates_distinct_streams(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        pol = RetryPolicy()
        assert backoffs(pol, jitter_rng(pol)) != backoffs(pol, jitter_rng(pol))


class TestBackoffShape:
    @pytest.fixture()
    def pol(self):
        return RetryPolicy(base_s=0.01, multiplier=2.0, max_s=0.05,
                           jitter=0.5, seed=7)

    def test_exponential_growth_capped(self, pol):
        rng = jitter_rng(pol)
        vals = backoffs(pol, rng, attempts=8)
        # base delay doubles until the cap; jitter stretches by <= 1.5x
        assert all(v <= 0.05 * 1.5 for v in vals)
        assert vals[0] <= 0.01 * 1.5

    def test_retry_after_hint_raises_the_floor(self, pol):
        rng = jitter_rng(pol)
        vals = backoffs(pol, rng, attempts=4, retry_after=0.2)
        assert all(v >= 0.2 for v in vals)

    def test_jitter_is_multiplicative_and_bounded(self, pol):
        rng = jitter_rng(pol)
        for a in range(6):
            base = min(pol.max_s, pol.base_s * pol.multiplier ** a)
            v = pol.backoff_s(a, None, rng)
            assert base <= v <= base * (1 + pol.jitter)

    def test_a_long_policy_backs_off_at_the_cap(self):
        """``multiplier ** attempt`` overflows a float at attempt 1024
        (``2.0 ** 1024``); past that the delay is the cap, jittered."""
        pol = RetryPolicy(attempts=2000, seed=7)
        rng, draws = jitter_rng(pol), jitter_rng(pol)
        for attempt in (1023, 1024, 1100, 1999):
            want = pol.max_s * (1 + pol.jitter * draws.random())
            assert pol.backoff_s(attempt, None, rng) == want

    def test_the_seeded_schedule_below_the_overflow_is_unchanged(self):
        pol = RetryPolicy(seed=7)
        rng, draws = jitter_rng(pol), jitter_rng(pol)
        for attempt in range(1024):
            base = min(pol.max_s, pol.base_s * pol.multiplier ** attempt)
            want = base * (1 + pol.jitter * draws.random())
            assert pol.backoff_s(attempt, None, rng) == want
