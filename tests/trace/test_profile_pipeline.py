"""Golden tests: a traced pipeline run produces a valid, populated profile."""

import json

import numpy as np
import pytest

from repro.frontend import generate_fft
from repro.trace import (
    Tracer,
    chrome_trace,
    profile_transform,
    tracing,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def traced_generate():
    """One traced generate_fft(64, threads=2) shared by the golden tests."""
    with tracing() as tr:
        gen = generate_fft(64, threads=2, mu=4)
    return tr, gen


class TestTracedGenerate:
    def test_chrome_trace_is_schema_valid(self, traced_generate):
        tr, _ = traced_generate
        assert validate_chrome_trace(chrome_trace(tr)) == []

    def test_pipeline_spans_present(self, traced_generate):
        tr, _ = traced_generate
        names = {e.name for e in tr.events}
        for expected in (
            "generate_fft",
            "frontend.derive",
            "frontend.expand",
            "rewrite.exhaustive",
            "sigma.lower",
            "codegen.python",
        ):
            assert expected in names, f"missing span {expected!r}"

    def test_rewrite_counters_fired(self, traced_generate):
        tr, _ = traced_generate
        assert tr.counter_total("rewrite.steps") > 0
        assert tr.counter_total("rewrite.rule_fired") > 0

    def test_sigma_counters(self, traced_generate):
        tr, gen = traced_generate
        assert tr.counter_total("sigma.stages") == len(gen.stages)
        barriers = sum(1 for s in gen.stages if s.needs_barrier)
        assert tr.counter_total("sigma.barriers_inserted") == barriers

    def test_round_trips_through_json(self, traced_generate, tmp_path):
        tr, _ = traced_generate
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(chrome_trace(tr), default=str))
        assert validate_chrome_trace(json.loads(path.read_text())) == []


@pytest.fixture(scope="module")
def profile64():
    return profile_transform(64, threads=2, mu=4)


class TestProfileTransform:
    def test_verifies_against_numpy(self, profile64):
        assert profile64.verified is True

    def test_stage_table_is_populated(self, profile64):
        assert len(profile64.stages) >= 2
        for s in profile64.stages:
            assert s.cycles > 0
            assert s.compute_cycles > 0

    def test_cache_counters_nonzero_per_stage(self, profile64):
        """Every stage streams data, so the replay must see L1 misses."""
        assert profile64.cache is not None
        assert all(s.l1_misses > 0 for s in profile64.stages)
        tr = profile64.tracer
        for si in range(len(profile64.stages)):
            assert tr.counter_total("cache.l1_misses", stage=si) > 0

    def test_coherence_counters(self, profile64):
        # the transpose stages truly share lines between the two procs
        total = sum(s.coherence_misses for s in profile64.stages)
        assert total > 0
        assert profile64.tracer.counter_total("coherence.misses") == total

    def test_definition_1_holds(self, profile64):
        assert profile64.false_sharing_free
        assert all(s.false_shared_lines == 0 for s in profile64.stages)

    def test_barrier_accounting(self, profile64):
        assert 0 < profile64.barrier_count <= len(profile64.stages)
        elided = len(profile64.stages) - profile64.barrier_count
        assert elided >= 0

    def test_wall_time_measured(self, profile64):
        assert any(s.wall_us > 0 for s in profile64.stages)

    def test_exec_stats_collected(self, profile64):
        st = profile64.exec_stats
        assert st is not None
        assert st.parallel_stages + st.sequential_stages == len(
            profile64.stages
        )

    def test_render_text_report(self, profile64):
        text = profile64.render_text()
        assert "# repro profile: DFT_64" in text
        assert "verified against numpy.fft: True" in text
        assert "modeled cycles:" in text
        assert "cache replay:" in text
        assert "Definition 1 (false-sharing freedom): PASS" in text
        assert "barriers:" in text
        # one table row per stage
        for s in profile64.stages:
            assert f"\n{s.index:>5} " in text

    def test_write_trace_is_schema_valid(self, profile64, tmp_path):
        path = tmp_path / "profile.json"
        profile64.write_trace(path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_model_only_profile_skips_execution(self):
        res = profile_transform(64, threads=2, mu=4, run=False)
        assert res.verified is None
        assert res.exec_stats is None
        assert res.cost is not None and res.cost.total_cycles > 0

    def test_replay_skipped_beyond_limit(self):
        res = profile_transform(
            64, threads=2, mu=4, run=False, replay_cache=False
        )
        assert res.cache is None
        assert all(s.l1_misses == 0 for s in res.stages)

    def test_sequential_profile(self):
        res = profile_transform(64, threads=1)
        assert res.runtime == "sequential"
        assert res.verified is True
        assert res.exec_stats.barriers == 0


class TestTracedNumericsUnchanged:
    def test_tracing_does_not_perturb_results(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        gen_plain = generate_fft(64, threads=2, mu=4)
        with tracing():
            gen_traced = generate_fft(64, threads=2, mu=4)
        np.testing.assert_allclose(
            gen_plain.run(x), gen_traced.run(x), atol=1e-12
        )
