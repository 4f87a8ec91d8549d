"""Unit tests for the fault-injection plane (repro.faults)."""

import time

import pytest

from repro.faults import (
    INJECTION_POINTS,
    NULL_FAULT_PLAN,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    NullFaultPlan,
    fault_plan,
    get_fault_plan,
    parse_chaos_spec,
    set_fault_plan,
)


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec("no.such.point")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("plan.slow", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("plan.slow", rate=-0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec("plan.slow", delay_s=-1)

    def test_every_registered_point_is_constructible(self):
        for point in INJECTION_POINTS:
            FaultSpec(point)


class TestFaultPlan:
    def test_rate_one_always_fires(self):
        plan = FaultPlan([FaultSpec("runtime.worker_crash")])
        assert all(plan.fired("runtime.worker_crash") for _ in range(5))
        assert plan.fires("runtime.worker_crash") == 5

    def test_unconfigured_point_never_fires(self):
        plan = FaultPlan([FaultSpec("plan.slow")])
        assert not plan.fired("net.conn_reset")
        assert plan.fires("net.conn_reset") == 0

    def test_deterministic_by_seed(self):
        def outcomes(seed):
            plan = FaultPlan([FaultSpec("net.conn_reset", rate=0.5)],
                             seed=seed)
            return [plan.fired("net.conn_reset") for _ in range(64)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)
        # a 0.5 rate over 64 draws fires some but not all of the time
        assert 0 < sum(outcomes(7)) < 64

    def test_max_fires_caps_total(self):
        plan = FaultPlan([FaultSpec("runtime.worker_crash", max_fires=2)])
        hits = sum(plan.fired("runtime.worker_crash") for _ in range(10))
        assert hits == 2
        assert plan.fires("runtime.worker_crash") == 2

    def test_stop_and_resume(self):
        plan = FaultPlan([FaultSpec("serve.queue_burst")])
        assert plan.fired("serve.queue_burst")
        plan.stop()
        assert not plan.active
        assert not plan.fired("serve.queue_burst")
        assert plan.fires("serve.queue_burst") == 1  # counters survive
        plan.resume()
        assert plan.fired("serve.queue_burst")

    def test_raise_if(self):
        plan = FaultPlan([FaultSpec("codegen.compile_fail")])
        with pytest.raises(FaultInjected) as ei:
            plan.raise_if("codegen.compile_fail")
        assert ei.value.point == "codegen.compile_fail"
        plan.raise_if("plan.slow")  # unconfigured: no-op

    def test_stall_sleeps_delay(self):
        plan = FaultPlan([FaultSpec("plan.slow", delay_s=0.05)])
        t0 = time.perf_counter()
        assert plan.stall("plan.slow")
        assert time.perf_counter() - t0 >= 0.045

    def test_snapshot_counts_evals_and_fires(self):
        plan = FaultPlan([FaultSpec("net.conn_reset", rate=0.5)], seed=1)
        for _ in range(20):
            plan.fired("net.conn_reset")
        snap = plan.snapshot()
        assert snap["net.conn_reset"]["evaluations"] == 20
        assert snap["net.conn_reset"]["fires"] == plan.fires("net.conn_reset")
        assert snap["net.conn_reset"]["rate"] == 0.5

    def test_add_by_point_name(self):
        plan = FaultPlan().add("plan.slow", rate=0.25, delay_s=0.01)
        assert plan.snapshot()["plan.slow"]["rate"] == 0.25


class TestGlobalInstallation:
    def test_default_is_null_plan(self):
        assert isinstance(get_fault_plan(), NullFaultPlan)
        assert not get_fault_plan().enabled

    def test_null_plan_probes_are_noops(self):
        assert NULL_FAULT_PLAN.should_fire("plan.slow") is None
        assert not NULL_FAULT_PLAN.fired("plan.slow")
        assert not NULL_FAULT_PLAN.stall("plan.slow")
        NULL_FAULT_PLAN.raise_if("plan.slow")
        with pytest.raises(TypeError):
            NULL_FAULT_PLAN.add(FaultSpec("plan.slow"))

    def test_scoped_install_and_restore(self):
        plan = FaultPlan([FaultSpec("plan.slow")])
        with fault_plan(plan) as fp:
            assert fp is plan
            assert get_fault_plan() is plan
        assert isinstance(get_fault_plan(), NullFaultPlan)

    def test_set_none_restores_null(self):
        set_fault_plan(FaultPlan())
        try:
            assert get_fault_plan().enabled
        finally:
            set_fault_plan(None)
        assert not get_fault_plan().enabled


class TestParseChaosSpec:
    def test_basic(self):
        plan = parse_chaos_spec(
            "runtime.worker_crash:0.1,net.conn_reset:0.05", seed=3
        )
        snap = plan.snapshot()
        assert snap["runtime.worker_crash"]["rate"] == 0.1
        assert snap["net.conn_reset"]["rate"] == 0.05

    def test_delay_ms(self):
        plan = parse_chaos_spec("plan.slow:1.0:50")
        assert plan.snapshot()["plan.slow"]["delay_s"] == 0.05

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("plan.slow")  # no rate
        with pytest.raises(ValueError):
            parse_chaos_spec("no.such.point:0.5")
        with pytest.raises(ValueError):
            parse_chaos_spec(",,")  # no points at all
