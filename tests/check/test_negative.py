"""Negative tests: the checker must catch the bugs it claims to catch.

Sabotage is seeded through the fault-injection plane
(``check.overlapping_write`` / ``check.misaligned_split``), both via the
library path (:func:`repro.check.apply_check_faults` inside
``check_program``) and via the ``repro check --chaos`` CLI, which must
exit non-zero with a named diagnostic.
"""

import dataclasses

import numpy as np
import pytest

from repro.check import (
    check_program,
    compare_plans,
    inject_misaligned_split,
    inject_overlapping_write,
)
from repro.cli import main
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.frontend import generate_fft
from repro.mp.spec import PlanSpec, compile_spec


@pytest.fixture()
def plan():
    """A clean parallel plan (t=2, mu=2-feasible)."""
    return generate_fft(64, threads=2, mu=2).program


class TestInjections:
    def test_overlapping_write_is_a_race(self, plan):
        report = check_program(inject_overlapping_write(plan), mu=2)
        assert not report.ok
        assert any(f.kind == "race" and "overlapping writes" in f.detail
                   for f in report.errors), report.render_text()

    def test_misaligned_split_is_false_sharing_not_a_race(self, plan):
        bad = inject_misaligned_split(plan)
        # still an exact partition: race-free at element granularity
        assert check_program(bad, mu=1).ok
        report = check_program(bad, mu=2)
        assert not report.ok
        fs = [f for f in report.errors if f.kind == "false-sharing"]
        assert fs and "mu-misaligned split" in fs[0].detail

    def test_injection_does_not_poison_the_original(self, plan):
        before = [s.writes().copy() for s in plan.stages]
        inject_overlapping_write(plan)
        inject_misaligned_split(plan)
        for s, w in zip(plan.stages, before):
            assert np.array_equal(s.writes(), w)
        assert check_program(plan, mu=2).ok

    def test_injected_stage_is_named(self, plan):
        bad = inject_overlapping_write(plan)
        assert any("+overlapping-write" in s.name for s in bad.stages)


class TestFaultSeededChecks:
    def test_seeded_overlap_caught_by_check_program(self, plan):
        spec = FaultSpec("check.overlapping_write", rate=1.0, max_fires=1)
        with fault_plan(FaultPlan([spec])) as fp:
            report = check_program(plan, mu=2)
            assert not report.ok
            assert any(f.kind == "race" for f in report.errors)
            assert fp.fires("check.overlapping_write") == 1
            # max_fires exhausted: the next check sees the clean plan
            assert check_program(plan, mu=2).ok
        assert check_program(plan, mu=2).ok

    def test_seeded_misalignment_caught_by_check_program(self, plan):
        spec = FaultSpec("check.misaligned_split", rate=1.0, max_fires=1)
        with fault_plan(FaultPlan([spec])):
            report = check_program(plan, mu=4)
            assert any(f.kind == "false-sharing" for f in report.errors)

    def test_sequential_plan_does_not_consume_fires(self):
        seq = generate_fft(16, threads=1).program
        assert not any(s.parallel for s in seq.stages)
        spec = FaultSpec("check.overlapping_write", rate=1.0, max_fires=1)
        with fault_plan(FaultPlan([spec])) as fp:
            assert check_program(seq, mu=2).ok
            assert fp.fires("check.overlapping_write") == 0


class TestPlanDeterminism:
    def test_thread_and_process_compilations_agree(self):
        n, t, mu = 256, 2, 2
        a = generate_fft(n, threads=t, mu=mu, strategy="balanced").program
        b = compile_spec(
            PlanSpec(n=n, threads=t, mu=mu, strategy="balanced")
        ).program.program
        assert compare_plans(a, b) == []

    def test_mutated_plan_is_flagged(self, plan):
        findings = compare_plans(plan, inject_misaligned_split(plan))
        assert findings
        assert all(f.kind == "determinism" for f in findings)

    def test_shape_mismatch_is_flagged(self, plan):
        other = generate_fft(256, threads=2, mu=2).program
        findings = compare_plans(plan, other)
        assert any("differ in shape" in f.detail for f in findings)


class TestCheckCLI:
    def test_positive_sweep_exits_zero(self, capsys):
        rc = main(["check", "--kmin", "4", "--kmax", "6",
                   "--threads", "2", "--mu", "1,2"])
        out = capsys.readouterr()
        assert rc == 0
        assert "0 failure(s)" in out.err
        assert "FAIL" not in out.out

    @pytest.mark.parametrize("point,needle", [
        ("check.overlapping_write", "overlapping writes"),
        ("check.misaligned_split", "mu-misaligned split"),
    ])
    def test_chaos_run_exits_nonzero_with_named_diagnostic(
        self, capsys, point, needle
    ):
        # n=2^6 with mu=4 still yields t=2, so the sabotage has a
        # parallel stage to land on
        rc = main(["check", "--kmin", "6", "--kmax", "6",
                   "--threads", "2", "--mu", "4",
                   "--chaos", f"{point}:1.0"])
        out = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in out.out
        assert needle in out.out

    def test_chaos_plan_is_uninstalled_after_main_returns(self, capsys):
        from repro.faults import NullFaultPlan, get_fault_plan

        main(["check", "--kmin", "4", "--kmax", "4", "--mu", "2",
              "--chaos", "check.overlapping_write:1.0"])
        capsys.readouterr()
        assert isinstance(get_fault_plan(), NullFaultPlan)

    def test_runtime_selection(self, capsys):
        """Every runtime runs the one record, so there is no runtime to
        pick: one row per config, each compared with a second build."""
        with pytest.raises(SystemExit):
            main(["check", "--runtime", "thread"])
        capsys.readouterr()
        rc = main(["check", "--kmin", "4", "--kmax", "6", "--threads", "2,4",
                   "--mu", "1,2"])
        out = capsys.readouterr()
        assert rc == 0
        rows = [ln for ln in out.out.splitlines() if ln.startswith("n=2^")]
        assert len(rows) == 3 * 2 * 2
        assert not any("thread" in r or "process" in r for r in rows)
        assert "12 plan(s) checked, 0 failure(s)" in out.err

    def test_second_build_is_compared(self, capsys, monkeypatch):
        """A second build that differs from the first is a failure."""
        import repro.serve.plan_cache as plan_cache

        real, builds = plan_cache.build_plan, []

        def build(spec, key=None):
            plan = real(spec, key)
            builds.append(plan)
            if len(builds) % 2:  # the config's first build
                return plan
            gen = plan.program
            return dataclasses.replace(plan, program=dataclasses.replace(
                gen, program=inject_misaligned_split(gen.program)
            ))

        monkeypatch.setattr(plan_cache, "build_plan", build)
        rc = main(["check", "--kmin", "6", "--kmax", "6", "--threads", "2",
                   "--mu", "2"])
        out = capsys.readouterr()
        assert rc == 1 and len(builds) == 2
        assert "determinism" in out.out
