"""BENCHMARK.json is the driver contract's schema and matches the spec."""

import json
import re
from pathlib import Path

from harness import spec

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _committed():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_committed_manifest_is_the_one_the_spec_builds():
    assert _committed() == spec.manifest()


def test_manifest_has_exactly_the_contract_keys():
    doc = spec.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"][-1].startswith(doc["paths"][0] + "/")
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"}
        assert "\n" not in row["why"] and len(row["why"]) <= 200
    for row in doc["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in doc["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    assert len(json.dumps(doc)) < 64 * 1024


def test_counts_names_units_and_directions():
    doc = spec.manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [r["name"] for k in ("workloads", "end_to_end", "per_layer")
             for r in doc[k]]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.fullmatch(name), name
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")


def test_setup_s_is_gated_with_the_widest_bound():
    e2e = {r["name"]: r for r in spec.manifest()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(r["bound"] for r in e2e.values())


def test_the_run_budget_fits_the_driver_cap():
    # 4 + 22 x workloads runs of run_seconds plus set-ups inside 3420 s
    runs = 4 + 22 * len(spec.WORKLOADS)
    assert runs * spec.RUN_SECONDS < 0.5 * 3420


def test_every_layer_metric_says_what_it_should_move():
    workloads = {w.name for w in spec.WORKLOADS}
    e2e = {m.name for m in spec.END_TO_END}
    layer = {m.name for m in spec.PER_LAYER}
    for m in spec.PER_LAYER:
        assert m.moves, m.name
        if m.moves == "none":
            continue
        mentioned = set(re.findall(r"[A-Za-z0-9_.]+", m.moves))
        assert mentioned & (e2e | layer), (m.name, m.moves)
        for token in mentioned:
            if token.startswith(("kernel_", "serve_", "route_", "plan_b")):
                assert token in workloads, (m.name, token)
