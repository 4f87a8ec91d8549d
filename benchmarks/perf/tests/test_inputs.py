"""Inputs come from the seed alone: same seed, same bytes."""

import numpy as np

from harness.measure import Case, workload_rng
from harness.spec import WORKLOADS


def _bytes(seed, name, shape=(4, 64)):
    return Case.make(workload_rng(seed, name), shape).x.tobytes()


def test_same_seed_same_bytes():
    for wl in WORKLOADS:
        assert _bytes(7, wl.name) == _bytes(7, wl.name)


def test_other_seed_other_bytes():
    for wl in WORKLOADS:
        assert _bytes(7, wl.name) != _bytes(8, wl.name)


def test_workloads_do_not_share_a_stream():
    streams = {_bytes(7, wl.name) for wl in WORKLOADS}
    assert len(streams) == len(WORKLOADS)


def test_case_reference_is_numpy_fft():
    case = Case.make(workload_rng(0, "x"), (3, 128))
    assert case.rel_err(np.fft.fft(case.x, axis=-1)) == 0.0
    assert case.rel_err(None) == float("inf")
    assert case.rel_err(case.ref[:, :64]) == float("inf")
    assert case.rel_err(case.ref * (1 + 1e-6)) > 1e-10
