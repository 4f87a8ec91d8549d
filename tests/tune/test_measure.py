"""Measured search: candidate space, seeded order, wisdom persistence."""

import pytest

from repro.rewrite.breakdown import RADIX_STRATEGIES
from repro.tune import candidate_space, measured_search
from repro.tune.measure import LEAF_BOUNDS
from repro.wisdom import TUNE_VERSION, Wisdom


class TestCandidateSpace:
    def test_inprocess_space_is_strategy_times_leaf(self):
        space = candidate_space("sequential")
        assert len(space) == len(RADIX_STRATEGIES) * len(LEAF_BOUNDS)
        assert {c.strategy for c in space} == set(RADIX_STRATEGIES)
        assert {c.min_leaf for c in space} == set(LEAF_BOUNDS)

    def test_process_space_has_no_leaf_axis(self):
        """PlanSpec carries no leaf bound: only the strategy axis."""
        space = candidate_space("process")
        assert len(space) == len(RADIX_STRATEGIES)
        assert all(c.min_leaf == 32 for c in space)

    def test_space_order_is_canonical(self):
        assert candidate_space("sequential") == candidate_space("sequential")


class TestMeasuredSearch:
    def test_ranking_sorted_and_correct_shape(self):
        res = measured_search(64, budget=3, repeats=1, seed=7)
        assert len(res.ranking) == 3
        secs = [m.seconds for m in res.ranking]
        assert secs == sorted(secs)
        assert res.best is res.ranking[0]
        assert res.best.per_vector_ms > 0

    def test_candidate_set_is_seed_stable(self):
        # the ranked order depends on wall-clock; the *set* of timed
        # candidates (the budget-prefix of the seeded shuffle) must not
        a = measured_search(64, budget=4, repeats=1, seed=7)
        b = measured_search(64, budget=4, repeats=1, seed=7)
        assert {(m.strategy, m.min_leaf) for m in a.ranking} \
            == {(m.strategy, m.min_leaf) for m in b.ranking}

    def test_thread_request_is_clamped(self):
        res = measured_search(16, threads=8, mu=4, budget=1, repeats=1)
        assert res.threads <= 8  # feasible_threads clamp applied
        assert res.threads >= 1

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            measured_search(64, runtime="fiber")
        with pytest.raises(ValueError):
            measured_search(64, budget=0)

    def test_wisdom_round_trip(self, tmp_path):
        w = Wisdom(tmp_path / "w.json")
        res = measured_search(64, budget=2, repeats=1, seed=3, wisdom=w)
        rec = w.tuning(64, 1, 4, "numpy", "sequential")
        assert rec is not None
        assert rec["best"]["strategy"] == res.best.strategy
        assert len(rec["ranking"]) == 2
        # persisted: a fresh Wisdom on the same file sees it
        rec2 = Wisdom(tmp_path / "w.json").tuning(
            64, 1, 4, "numpy", "sequential"
        )
        assert rec2 == rec

    def test_plan_works_on_tune_only_entries(self, tmp_path):
        """A wisdom file written by ``repro tune`` plans, and plans what it
        ranked: a fresh cache on the file builds the lane's ``best`` spec
        (an entry holding only a ``tune`` block once crashed
        ``repro serve --wisdom`` with a KeyError on "tree").
        """
        import numpy as np

        from repro.serve.plan_cache import PlanCache, PlanKey
        from repro.smp.runtime import SequentialRuntime

        res = measured_search(
            64, budget=2, repeats=1, wisdom=Wisdom(tmp_path / "w.json")
        )
        plan = PlanCache(wisdom=Wisdom(tmp_path / "w.json")).get(PlanKey(64))
        assert (plan.spec.strategy, plan.spec.min_leaf, plan.spec.nu) == (
            res.best.strategy, res.best.min_leaf, res.best.nu
        )
        x = np.random.default_rng(0).standard_normal(64) + 0j
        y, _ = SequentialRuntime().run(plan, x[np.newaxis])
        np.testing.assert_allclose(y[0], np.fft.fft(x), atol=1e-6)

    def test_tune_records_are_versioned(self, tmp_path):
        import json

        path = tmp_path / "w.json"
        w = Wisdom(path)
        measured_search(64, budget=1, repeats=1, wisdom=w)
        stored = json.loads(path.read_text())
        assert stored["dft:64:p1:mu4"]["tune"]["version"] == TUNE_VERSION
        # a version bump invalidates the record
        stored["dft:64:p1:mu4"]["tune"]["version"] = TUNE_VERSION + 1
        path.write_text(json.dumps(stored))
        assert w.tuning(64, 1, 4, "numpy", "sequential") is None
        assert w.best(64, 1, 4, "numpy", "sequential") is None
