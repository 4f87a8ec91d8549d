"""The seeded hunt budget: tier-1's differential sweep.

``run_hunt`` over the default seed (``REPRO_SEED``, else 0) on the NumPy
backend — plus the compiled one where a C compiler is present — and every
runtime, through the same oracle stack as ``repro hunt`` and ``repro
check``: each case against ``np.fft``, the Definition 1 dynamic check and
the structural check.  The process lane's workers build every plan from
its spec, so the sweep also holds master and workers to one plan.
"""

from repro.codegen.compiled_backend import compiled_available
from repro.hunt import RUNTIMES, HuntConfig, run_hunt, sample_cases
from repro.mp import segment_stats
from repro.seeding import SEED_ENV_VAR

#: cases per sweep (every runtime lane is drawn at the default seed);
#: ~1.6 s on a 2-vCPU Xeon with a warm codelet cache, ~6 s cold
BUDGET = 32

BACKENDS = ("numpy", "compiled") if compiled_available() else ("numpy",)


def test_seeded_hunt_budget():
    report = run_hunt(HuntConfig(budget=BUDGET, backends=BACKENDS,
                                 reduce=False))
    assert report.cases == BUDGET
    assert report.ok, report.render_text()
    stats = segment_stats()
    assert stats["live"] == 0, f"leaked shared-memory segments: {stats}"


def test_budget_answers_to_repro_seed(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "1337")
    rotated = sample_cases(BUDGET, backends=BACKENDS)
    assert rotated == sample_cases(BUDGET, seed=1337, backends=BACKENDS)
    monkeypatch.delenv(SEED_ENV_VAR)
    assert rotated != sample_cases(BUDGET, backends=BACKENDS)
    assert {c.runtime for c in rotated} == set(RUNTIMES)
