"""The oracle stack: verdict kinds, sabotage points, term semantics."""

import pytest

from repro.codegen.compiled_backend import compiled_available
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.hunt import ExecutorPools, HuntCase, run_oracle
from repro.spl.matrices import DFT, I
from repro.spl.expr import Tensor


CASE = HuntCase(n=64, req_threads=4, mu=2, strategy="balanced", batch=2)


@pytest.fixture(scope="module")
def pools():
    p = ExecutorPools()
    yield p
    p.close()


@pytest.mark.parametrize("runtime", ["sequential", "pthreads", "process"])
def test_clean_case_passes_every_runtime(pools, runtime):
    assert run_oracle(CASE.with_(runtime=runtime), pools=pools).ok


def test_exec_corrupt_fails_the_numeric_oracle(pools):
    with fault_plan(FaultPlan([FaultSpec("hunt.exec_corrupt", rate=1.0)])):
        v = run_oracle(CASE, pools=pools)
    assert not v.ok
    assert v.kind == "numeric"
    assert "diverges" in v.detail


def test_plan_sabotage_fails_the_dynamic_check_oracle(pools):
    with fault_plan(FaultPlan([FaultSpec("hunt.plan_sabotage", rate=1.0)])):
        v = run_oracle(CASE, pools=pools)
    assert not v.ok
    assert v.kind == "dynamic-check"


def test_plan_sabotage_does_not_corrupt_the_numeric_path(pools):
    """Sabotage applies to the *checked copy* only; execution stays clean.

    This keeps the failure kind stable across every runtime during
    reduction — the reducer's interestingness test depends on it.
    """
    with fault_plan(FaultPlan([FaultSpec("hunt.plan_sabotage", rate=1.0)])):
        v = run_oracle(CASE, pools=pools)
    assert v.kind == "dynamic-check"  # never "numeric"


def test_invalid_config_is_a_build_error(pools):
    v = run_oracle(CASE.with_(strategy="no-such-strategy"), pools=pools)
    assert not v.ok
    assert v.kind == "build-error"


@pytest.mark.skipif(not compiled_available(), reason="no C compiler")
def test_unbuildable_backend_is_a_build_error_not_numpy(pools):
    """A backend that cannot build its stages fails; the stack never
    certifies the NumPy stages a fallback would substitute."""
    spec = FaultSpec("codegen.compile_fail", rate=1.0)
    with fault_plan(FaultPlan([spec])):
        v = run_oracle(CASE.with_(backend="compiled"), pools=pools)
    assert v.kind == "build-error", v
    assert v.oracle == "build:compiled"


def test_term_oracle_uses_term_semantics(pools):
    """A non-DFT term passes: the executor is compared to term.apply."""
    term = Tensor(I(4), DFT(16))
    v = run_oracle(CASE.with_(runtime="sequential"), term=term, pools=pools)
    assert v.ok, v


def test_term_oracle_detects_corruption(pools):
    term = Tensor(I(4), DFT(16))
    with fault_plan(FaultPlan([FaultSpec("hunt.exec_corrupt", rate=1.0)])):
        v = run_oracle(CASE, term=term, pools=pools)
    assert not v.ok and v.kind == "numeric"
    assert "term" in v.detail


def test_verdict_is_deterministic(pools):
    assert run_oracle(CASE, pools=pools) == run_oracle(CASE, pools=pools)
