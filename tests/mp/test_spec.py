"""PlanSpec: validation, clamping, pickling, and the compile cache."""

import pickle

import pytest

from repro.check import compare_plans
from repro.frontend import feasible_threads
from repro.mp import PlanSpec, clear_spec_cache, compile_spec
from repro.serve.plan_cache import PlanKey


class TestPlanSpec:
    def test_defaults(self):
        spec = PlanSpec(n=256)
        assert spec.threads == 1
        assert spec.mu == 4
        assert spec.strategy == "balanced"

    def test_validation(self):
        with pytest.raises(ValueError, match="transform size"):
            PlanSpec(n=1)
        with pytest.raises(ValueError, match="threads"):
            PlanSpec(n=64, threads=0)

    def test_hashable_and_frozen(self):
        a = PlanSpec(n=64, threads=2)
        b = PlanSpec(n=64, threads=2)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(Exception):
            a.n = 128  # frozen dataclass

    def test_pickle_roundtrip(self):
        spec = PlanSpec(n=512, threads=2, mu=2, strategy="radix2")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_for_request_clamps_threads(self):
        # 8 threads with mu=4 needs (8*4)^2 | n — infeasible at n=256
        spec = PlanSpec.for_request(256, threads=8)
        assert spec.threads == feasible_threads(256, 8, 4)
        assert spec.threads <= 8

    def test_for_request_single_thread_is_exact(self):
        assert PlanSpec.for_request(64, threads=1).threads == 1

    def test_from_plan_key(self):
        key = PlanKey(n=1024, threads=2, mu=4, strategy="balanced", nu=2)
        spec = PlanSpec.from_plan_key(key)
        assert (
            spec.n, spec.threads, spec.mu, spec.strategy, spec.nu
        ) == tuple(key)


class TestCompileCache:
    def test_cache_hit_returns_same_object(self):
        spec = PlanSpec(n=128, threads=2)
        assert compile_spec(spec) is compile_spec(spec)

    def test_clear_forces_recompile(self):
        spec = PlanSpec(n=128, threads=2)
        first = compile_spec(spec)
        clear_spec_cache()
        second = compile_spec(spec)
        assert first is not second

    def test_recompilation_is_deterministic(self):
        """Two independent compiles yield the identical stage structure —
        the invariant cross-process lockstep execution relies on."""
        spec = PlanSpec(n=256, threads=2)
        first = compile_spec(spec)
        clear_spec_cache()
        second = compile_spec(spec)
        assert len(first.stages) == len(second.stages)
        for a, b in zip(first.stages, second.stages):
            assert a.parallel == b.parallel
            assert a.needs_barrier == b.needs_barrier
        assert compare_plans(first.program, second.program) == []
