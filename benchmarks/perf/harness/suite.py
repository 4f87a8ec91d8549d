"""All workloads, many rounds: medians, quartiles, and the A/A self-check.

Each round runs every workload once in a fresh child process (the same
command line the driver uses), in an order rotated per round so slow machine
drift hits all workloads equally.  Round ``r`` uses seed ``seed + r``: a
metric's quartile spread over rounds is therefore the spread over seeds the
driver contract asks for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .host import run_child
from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest
from .stats import summarize, worsening

#: rounds of one set; ten is what the driver's own acceptance check runs
ROUNDS = 10

#: a child gets the driver's per-run cap
CHILD_TIMEOUT_S = 180


class SuiteFailed(RuntimeError):
    pass


def _child(script: Path, name: str, seed: int, trace: int) -> dict:
    proc = run_child(
        [sys.executable, str(script), "--workload", name, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SuiteFailed(
            f"{name} (seed {seed}, trace {trace}) exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}"
        )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SuiteFailed(f"{name}: {line['failed']} failed ops")
    return line


def run_set(script: Path, names: list, seed: int, rounds: int,
            label: str) -> dict:
    """``rounds`` rounds of every named workload; per-metric summaries."""
    samples = {n: {m.name: [] for m in END_TO_END} for n in names}
    attempted = {n: 0 for n in names}
    for r in range(rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            line = _child(script, name, seed + r, trace=0)
            attempted[name] += line["attempted"]
            for m in END_TO_END:
                samples[name][m.name].append(line["metrics"][m.name]["value"])
            print(f"[{label} round {r + 1}/{rounds}] {name}: " + "  ".join(
                f"{m.name}={line['metrics'][m.name]['value']:.6g}"
                for m in END_TO_END), flush=True)
    return {
        n: {
            "ops_attempted": attempted[n], "ops_failed": 0,
            "metrics": {k: summarize(v) for k, v in samples[n].items()},
        }
        for n in names
    }


def traced_round(script: Path, names: list, seed: int) -> dict:
    out = {}
    for name in names:
        line = _child(script, name, seed, trace=1)
        out[name] = {k: v["value"] for k, v in line["metrics"].items()}
        print(f"[traced] {name} done", flush=True)
    return out


def compare_sets(a: dict, b: dict) -> list[str]:
    """Every way set ``b`` disagrees with set ``a`` beyond a metric's bound.

    The driver's acceptance rule: each quartile spread (``setup_s`` excepted)
    stays within the bound, and no median of the second set is worse than
    the first's by more than the bound.
    """
    problems = []
    for name in a:
        for m in END_TO_END:
            sa, sb = a[name]["metrics"][m.name], b[name]["metrics"][m.name]
            worse = worsening(m.better, sa["median"], sb["median"])
            if worse > m.bound:
                problems.append(
                    f"{name} {m.name}: B median worse than A by "
                    f"{worse:.1%} (bound {m.bound:.0%})"
                )
            if m.name == "setup_s":
                continue
            for label, s in (("A", sa), ("B", sb)):
                if s["spread"] > m.bound:
                    problems.append(
                        f"{name} {m.name}: set {label} spread "
                        f"{s['spread']:.1%} exceeds bound {m.bound:.0%}"
                    )
    return problems


def _print_table(results: dict, layers: dict) -> None:
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    print(f"\n{'workload':22s} {'metric':20s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s} {'spread':>7s} unit")
    for name, block in results.items():
        for mname, s in block["metrics"].items():
            print(f"{name:22s} {mname:20s} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d} "
                  f"{s['spread']:7.1%} {units[mname]}")
    for name, metrics in layers.items():
        print(f"\n-- per-layer, {name} (traced round; 0 = layer not "
              "exercised by this workload)")
        for mname, value in metrics.items():
            if value:
                print(f"{name:22s} {mname:36s} {value:16.6g} {units[mname]}")


def run_suite(script: Path, names: list, seed: int, rounds: int, aa: bool,
              output: Path) -> int:
    """The no-argument entry point; returns the process exit code."""
    contract = manifest()
    with open(script.resolve().parents[2] / "BENCHMARK.json", "w") as fh:
        json.dump(contract, fh, indent=2)
        fh.write("\n")
    doc: dict = {
        "command": contract["command"], "seed": seed, "rounds": rounds,
        "run_seconds": RUN_SECONDS,
        "workloads": {
            w.name: {"why": w.why, "ops_per_block": w.ops_per_block,
                     "blocks_per_lap": w.blocks_per_lap,
                     "core_share": w.core_share}
            for w in WORKLOADS if w.name in names
        },
        "end_to_end": {m.name: {"unit": m.unit, "better": m.better,
                                "bound": m.bound} for m in END_TO_END},
        "per_layer": {m.name: {"unit": m.unit, "better": m.better,
                               "moves": m.moves} for m in PER_LAYER},
    }
    doc["results"] = run_set(script, names, seed, rounds, "A")
    problems: list[str] = []
    if aa:
        doc["aa"] = {"A": doc["results"],
                     "B": run_set(script, names, seed, rounds, "B")}
        problems = compare_sets(doc["aa"]["A"], doc["aa"]["B"])
        doc["aa"]["problems"] = problems
    doc["layers"] = traced_round(script, names, seed)
    for name in names:
        with open(script.resolve().parent / "out"
                  / f"run-{name}-trace0.json") as fh:
            run = json.load(fh)
        doc.setdefault("host", run["host"])
        doc.setdefault("plans", {})[name] = run["plan"]
    output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    _print_table(doc["results"], doc["layers"])
    print(f"\nwrote {output}")
    for p in problems:
        print(f"A/A DISAGREES: {p}")
    return 1 if problems else 0
