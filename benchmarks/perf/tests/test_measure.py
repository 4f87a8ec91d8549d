"""Failure accounting, speed scaling, and the run-level reduction."""

import numpy as np
import pytest

from harness import runner
from harness.measure import (
    Block,
    Calibrator,
    Case,
    SetupClock,
    slowdown,
    timed_op,
    workload_rng,
)
from harness.spans import SpanStore


class StubCalibrator:
    """Calibration samples of a core ``factor`` times slower than reference."""

    def __init__(self, factor=1.0):
        self.factor = factor

    def sample(self, calls):
        return [self.factor * Calibrator.REF_US * 1e-6] * calls


class Refused(Exception):
    pass


def _case():
    return Case.make(workload_rng(3, "stub"), (2, 32))


def _run(block, case, call, **kw):
    timed_op(block, call, case.rel_err, StubCalibrator(), 2, **kw)


def test_a_wrong_answer_is_a_failed_op_with_no_latency_sample():
    case, block = _case(), Block()
    _run(block, case, lambda: np.fft.fft(case.x, axis=-1))
    _run(block, case, lambda: case.ref + 1e-3)            # wrong numbers
    _run(block, case, lambda: case.ref[:1])               # wrong shape
    _run(block, case, lambda: case.ref * float("nan"))    # not a number
    assert (block.attempted, block.failed) == (4, 3)
    assert len(block.ok_s) == 1
    assert block.max_rel_err <= 1e-10


def test_a_refused_request_is_a_failed_op_and_other_errors_propagate():
    case, block = _case(), Block()

    def refuse():
        raise Refused("overloaded")

    _run(block, case, refuse, refused=(Refused,))
    assert (block.attempted, block.failed, block.ok_s) == (1, 1, [])
    with pytest.raises(ZeroDivisionError):
        _run(block, case, lambda: 1 / 0, refused=(Refused,))


def test_a_block_of_only_failures_has_no_median():
    case, block = _case(), Block()
    _run(block, case, lambda: None)
    block.close()
    assert (block.failed, block.ok) == (1, 0)
    assert block.p50_us() is None and block.raw_p50_us is None


def test_the_traced_op_is_one_root_span_with_one_child():
    case, block, store = _case(), Block(), SpanStore()
    _run(block, case, lambda: case.ref, store=store, span="layer.call",
         op_id=42)
    assert [(s[0], s[3], s[4]) for s in store.spans] == [
        ("op", None, 42), ("layer.call", 0, 42)]
    assert block.ok_s == [store.spans[0][2] - store.spans[0][1]]


def test_slowdown_scales_by_the_core_bound_share_only():
    ref = Calibrator.REF_US * 1e-6
    assert slowdown([ref] * 5) == pytest.approx(1.0)
    assert slowdown([1.5 * ref] * 5) == pytest.approx(1.5)
    assert slowdown([1.5 * ref] * 5, core_share=0.3) == pytest.approx(1.15)
    # the median: one preempted calibration unit does not move it
    assert slowdown([ref, ref, 40 * ref]) == pytest.approx(1.0)


def test_block_timings_are_put_on_the_reference_cores_scale():
    ref = Calibrator.REF_US * 1e-6
    block = Block(ok_s=[2e-6, 4e-6, 6e-6], cal_s=[2 * ref] * 3, busy_s=12e-6)
    block.close()
    assert block.raw_p50_us == pytest.approx(4.0)
    assert block.p50_us() == pytest.approx(2.0)
    assert Block(0.5, [4e-6], [2 * ref]).close().p50_us() == pytest.approx(
        4.0 / 1.5)


def test_closing_a_block_lets_its_samples_go_unless_asked():
    ref = Calibrator.REF_US * 1e-6
    kept = Block(ok_s=[1e-6, 2e-6], cal_s=[ref]).close(keep_samples=True)
    dropped = Block(ok_s=[1e-6, 2e-6], cal_s=[ref]).close()
    assert kept.ok_s == [1e-6, 2e-6] and dropped.ok_s == []
    assert kept.ok == dropped.ok == 2
    assert kept.raw_p50_us == dropped.raw_p50_us


def test_the_calibration_unit_takes_time_and_returns_samples():
    samples = Calibrator().sample(5)
    assert len(samples) == 5 and all(s > 0 for s in samples)


def _lap(p50_us, factor, failed=0):
    ref = Calibrator.REF_US * 1e-6
    seconds = p50_us * factor * 1e-6
    return [Block(ok_s=[seconds] * 4, cal_s=[factor * ref] * 4,
                  attempted=4 + failed, failed=failed,
                  busy_s=4 * seconds).close()]


def test_the_run_reports_on_its_calmest_laps():
    # nine laps; the three on the calm core read 10 us, the disturbed ones
    # (scaled back, but not perfectly) read 12 us
    laps = [_lap(12.0, 1.6) for _ in range(6)] + [_lap(10.0, 1.0)] * 3
    out = runner._reduce(laps)
    assert out["op_p50_us"] == pytest.approx(10.0)
    assert out["throughput_ops_s"] == pytest.approx(1e5)
    assert out["slowdown"] == pytest.approx(1.0)
    assert (out["attempted"], out["failed"]) == (36, 0)
    assert len(out["block_rows"]) == 9


def test_failed_ops_are_counted_from_every_lap_not_only_the_calm_ones():
    laps = [_lap(10.0, 1.0)] * 3 + [_lap(10.0, 2.0, failed=2)]
    out = runner._reduce(laps)
    assert (out["attempted"], out["failed"]) == (18, 2)


def test_a_run_without_one_clean_lap_has_no_result():
    bad = [Block(attempted=3, failed=3, cal_s=[1e-5]).close()]
    with pytest.raises(runner.RunFailed):
        runner._reduce([bad, bad])


def test_setup_phases_are_scaled_by_the_speed_around_them():
    now = [0.0]
    cal = StubCalibrator(1.0)
    clock = SetupClock(0.0, cal, clock=lambda: now[0])
    now[0] = 1.0
    clock.mark("import")          # 1 s at factor 1
    cal.factor = 2.0
    now[0] = 4.0
    clock.mark("compile")         # 3 s between factor 1 and factor 2
    assert [p["wall_s"] for p in clock.phases] == [1.0, 3.0]
    assert clock.total_s() == pytest.approx(1.0 + 3.0 / 1.5)
