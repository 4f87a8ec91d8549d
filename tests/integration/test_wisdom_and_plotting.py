"""Tests for the wisdom record store and the ASCII chart renderer."""

import json

from repro.plotting import ascii_chart
from repro.wisdom import TUNE_VERSION, Wisdom


RECORD = {"best": {"strategy": "radix2", "min_leaf": 16, "nu": 1},
          "ranking": []}


class TestWisdom:
    def test_persistence_across_instances(self, tmp_path):
        path = tmp_path / "wisdom.json"
        w1 = Wisdom(path)
        w1.record_tuning(128, 1, 4, "numpy", "sequential", RECORD)
        w1.record_tuning(128, 1, 4, "compiled", "sequential", RECORD)

        w2 = Wisdom(path)
        assert (128, 1, 4) in w2 and len(w2) == 1
        assert w2.tuning(128, 1, 4, "numpy", "sequential") == RECORD
        assert w2.tuning(128, 1, 4, "compiled", "sequential") == RECORD
        assert w2.entry(128) == w1.entry(128)
        # a ranking is all an entry holds
        assert w2.entry(128) == {"tune": {
            "version": TUNE_VERSION,
            "rankings": {"numpy/sequential": RECORD,
                         "compiled/sequential": RECORD},
        }}

    def test_best_falls_back_to_the_sequential_lane(self):
        w = Wisdom()
        assert w.best(256, 2, 4, "numpy", "pthreads") is None
        w.record_tuning(256, 2, 4, "numpy", "sequential", RECORD)
        assert w.best(256, 2, 4, "numpy", "pthreads") == RECORD["best"]
        own = {"best": {"strategy": "balanced", "min_leaf": 32, "nu": 1}}
        w.record_tuning(256, 2, 4, "numpy", "pthreads", own)
        assert w.best(256, 2, 4, "numpy", "pthreads") == own["best"]
        # another backend's ranking is never borrowed
        assert w.best(256, 2, 4, "compiled", "pthreads") is None

    def test_parent_written_file_still_loads(self, tmp_path):
        """A file from before wisdom held only rankings — with trees,
        artifacts and observation blocks: its rankings are honoured and
        still pick the build, everything else is ignored and kept."""
        from repro.serve.plan_cache import PlanCache, PlanKey

        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"dft:64:p1:mu4": {
            "tree": [8, 8], "value": 1088.0, "evaluations": 12,
            "artifacts": {"compiled": {"so": "plan.so"}},
            "tune": {"version": TUNE_VERSION,
                     "rankings": {"numpy/sequential": RECORD},
                     "observations": {"numpy/sequential": {
                         "requests": 40, "best_p50_ms": 0.2,
                         "last": {"p50_ms": 0.3}}}},
        }}))
        w = Wisdom(path)
        assert w.best(64, 1, 4, "numpy", "sequential") == RECORD["best"]
        spec = PlanCache(wisdom=w).get(PlanKey(64)).spec
        assert (spec.strategy, spec.min_leaf, spec.nu) == ("radix2", 16, 1)
        w.record_tuning(128, 1, 4, "numpy", "sequential", RECORD)
        old = json.loads(path.read_text())["dft:64:p1:mu4"]
        assert old["tree"] == [8, 8] and "observations" in old["tune"]

    def test_forget(self, tmp_path):
        path = tmp_path / "wisdom.json"
        w = Wisdom(path)
        w.record_tuning(64, 1, 4, "numpy", "sequential", RECORD)
        assert len(w) == 1
        w.forget()
        assert len(w) == 0
        assert json.loads(path.read_text()) == {}
        assert len(Wisdom(path)) == 0

    def test_memory_only_mode(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        w = Wisdom()  # no path: in-memory only
        w.record_tuning(64, 1, 4, "numpy", "sequential", RECORD)
        with w.transaction():
            w.record_tuning(128, 1, 4, "numpy", "sequential", RECORD)
        assert w.best(64, 1, 4, "numpy", "sequential") == RECORD["best"]
        assert w.best(128, 1, 4, "numpy", "sequential") == RECORD["best"]
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_file_tolerated(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("{not json")
        w = Wisdom(path)
        assert len(w) == 0
        assert w.best(64, 1, 4, "numpy", "sequential") is None
        # ... and the next record replaces it with a valid file
        w.record_tuning(64, 1, 4, "numpy", "sequential", RECORD)
        assert set(json.loads(path.read_text())) == {"dft:64:p1:mu4"}

    def test_module_imports_no_planner(self):
        """The record store builds nothing: ``wisdom.py`` imports the
        stdlib and ``repro.trace``, never search / codegen / rewrite."""
        import ast
        from pathlib import Path

        import repro.wisdom

        imported = []
        for node in ast.walk(ast.parse(Path(repro.wisdom.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append("." * node.level + (node.module or ""))
        ours = [m for m in imported
                if m.startswith(".") or m.split(".")[0] == "repro"]
        assert ours == [".trace"]


class TestAsciiChart:
    def test_basic_render(self):
        chart = ascii_chart(
            {"a": {6: 100.0, 7: 200.0, 8: 300.0}},
            title="t",
            width=30,
            height=8,
        )
        lines = chart.splitlines()
        assert lines[0] == "t"
        assert "o=a" in lines[-1]
        assert any("o" in l for l in lines[1:-3])

    def test_multiple_series_markers(self):
        chart = ascii_chart(
            {
                "one": {1: 1.0, 2: 2.0},
                "two": {1: 2.0, 2: 1.0},
            },
            width=20,
            height=6,
        )
        assert "o=one" in chart and "x=two" in chart
        assert "o" in chart and "x" in chart

    def test_axis_labels(self):
        chart = ascii_chart(
            {"s": {6: 50.0, 18: 100.0}},
            width=40,
            height=6,
            ylabel="MF",
            xlabel="log2n",
        )
        assert "log2n" in chart
        assert "MF" in chart
        # last tick fully visible at the right edge
        assert "18" in chart

    def test_empty(self):
        assert ascii_chart({}) == "(empty chart)"

    def test_single_point(self):
        chart = ascii_chart({"p": {4: 10.0}}, width=10, height=4)
        assert "o" in chart

    def test_interpolation_dots(self):
        chart = ascii_chart({"s": {0: 0.0, 10: 100.0}}, width=40, height=10)
        assert "." in chart  # line segments drawn between markers
