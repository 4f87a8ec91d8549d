"""One run of one workload in this process: the driver's unit of work.

``--trace 0`` measures the end-to-end metrics with no span recording;
``--trace 1`` is the traced round: untraced and traced laps alternate (so
machine drift hits both equally), then the workload's ladders run, and the
per-layer metrics come out of the recorded spans.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from . import host
from .spec import END_TO_END, PER_LAYER, SETUP_REPEATS, workload
from .stats import summarize

#: a run that cannot produce a result must say so well inside the driver's cap
PROBE_TIMEOUT_S = 150

#: fewest timed laps a run makes, however long one lap takes
MIN_LAPS = 2

#: fewest laps a run reports on
MIN_CALM_LAPS = 3


class RunFailed(RuntimeError):
    """The run produced no trustworthy result (leak, no samples, bad child)."""


def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
    # turn SIGTERM into an exception so every `finally` below still runs
    raise SystemExit(128 + signum)


def _timed_laps(run, seconds: float) -> list:
    """Whole laps of fixed-op-count blocks until ``seconds`` have passed."""
    laps = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(laps) < MIN_LAPS:
        laps.append(_lap(run))
    return laps


def _lap(run, store=None, keep_samples: bool = False) -> list:
    return [run.run_block(store).close(keep_samples)
            for _ in range(run.wl.blocks_per_lap)]


def calmest(laps: list) -> list:
    """The third of the laps (at least ``MIN_CALM_LAPS``) run on the least
    disturbed core.

    Scaling by the slowdown factor takes out most of a speed state's
    effect, not all of it (no op stretches exactly like the calibration
    unit), so the run reports on the laps that needed the least scaling.
    """
    keep = max(MIN_CALM_LAPS, len(laps) // 3)
    return sorted(laps, key=_lap_slowdown)[:keep]


def _lap_slowdown(lap: list) -> float:
    return statistics.median(b.slowdown() for b in lap)


def _reduce(laps: list) -> dict:
    """Run value of each timing: the median over the calmest laps."""
    blocks = [b for lap in laps for b in lap]
    calm = [lap for lap in calmest(laps) if all(b.ok for b in lap)]
    if not calm:
        raise RunFailed("no lap of the timed phase was free of failed ops")
    calm_blocks = [b for lap in calm for b in lap]
    p50s = [b.p50_us() for b in calm_blocks]
    lap_throughput = [
        sum(b.ok for b in lap) / sum(b.busy_s / b.slowdown() for b in lap)
        for lap in calm
    ]
    return {
        "op_p50_us": statistics.median(p50s),
        "throughput_ops_s": statistics.median(lap_throughput),
        "attempted": sum(b.attempted for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "max_rel_err": max(b.max_rel_err for b in blocks),
        "slowdown": statistics.median(b.slowdown() for b in calm_blocks),
        "raw_p50_us": statistics.median(b.raw_p50_us for b in calm_blocks),
        "calm_laps": summarize(p50s),
        #: raw p50 us, the calibration unit's own slowdown, correct ops and
        #: busy seconds per block: what ``Workload.core_share`` is fitted from
        "block_rows": [
            [b.raw_p50_us, b.unit_slowdown, b.ok, b.busy_s] for b in blocks
        ],
    }


def _traced_round(run, seconds: float, store) -> tuple[dict, dict]:
    """Alternating untraced and traced laps, then the workload's ladders.

    Returns the untraced laps' reduction (with the traced laps' op counts
    added: a failed traced op is still a failed op) and the layer metrics.
    """
    before = run.snapshot()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline or not traced:
        plain.append(_lap(run, keep_samples=True))
        traced.append(_lap(run, store))
    after = run.snapshot()
    result = _reduce(plain)
    traced_result = _reduce(traced)
    result["attempted"] += traced_result["attempted"]
    result["failed"] += traced_result["failed"]
    layers = run.layers(store, {
        "op_p50_us": result["op_p50_us"],
        "slowdown": result["slowdown"],
        "traced_blocks": sum(len(lap) for lap in traced),
        "before": before, "after": after,
        "ops": result["attempted"],
        "latencies_us": [s * 1e6 / b.slowdown()
                         for lap in plain for b in lap for s in b.ok_s],
    })
    op_self = store.by_name().get("op", ())
    layers.update({
        "trace_overhead_frac":
            traced_result["op_p50_us"] / result["op_p50_us"] - 1,
        "verify.max_rel_err": result["max_rel_err"],
        "verify.fail_frac": result["failed"] / result["attempted"],
        "harness.op_self_us":
            statistics.median(op_self) * 1e6 / result["slowdown"]
            if op_self else 0.0,
        "harness.op_raw_p50_us": result["raw_p50_us"],
        "host.slowdown": result["slowdown"],
    })
    return result, layers


def _probe_setup(script: Path, name: str, seed: int) -> float:
    """One more cold set-up of the same workload, in a fresh process."""
    proc = host.run_child(
        [sys.executable, str(script), "--workload", name, "--seed", str(seed),
         "--probe-setup"], PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunFailed(
            f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _check_leaks(pid: int) -> None:
    deadline = time.monotonic() + 5.0
    while host.child_pids(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    kids = host.child_pids(pid)
    shm = host.shm_leftovers(pid)
    if kids or shm:
        raise RunFailed(f"leaked children {kids} / shm segments {shm}")


def run_once(script: Path, t_start: float, name: str, seed: int,
             seconds: float, trace: bool, probe_only: bool = False) -> int:
    """Run workload ``name`` once and print the result line; the exit code.

    ``t_start`` is ``perf_counter`` at the first statement of the entry
    script, so ``setup_s`` covers the imports too.
    """
    root = script.resolve().parents[2]
    out_dir = script.resolve().parent / "out"
    wl = workload(name)
    allowed = os.sched_getaffinity(0)
    signal.signal(signal.SIGTERM, _on_sigterm)

    env = None
    run = None

    def release() -> None:
        try:
            if run is not None:
                run.close()
        finally:
            if env is not None:
                env.close()
            host.stop_resource_tracker()

    atexit.register(release)
    try:
        core = host.bench_core(allowed)
        os.sched_setaffinity(0, {core})
        # imported here, after the thread caps are in the environment
        from .measure import SetupClock
        from .spans import SpanStore
        from .workloads import RunEnv, make_run

        env = RunEnv(out_dir / f"tmp-{os.getpid()}", allowed, core)
        run = make_run(wl, seed, env)
        clock = SetupClock(t_start, run.cal)
        clock.mark("import")
        detail: dict = {"workload": wl.name, "why": wl.why, "seed": seed,
                        "trace": int(trace), "seconds": seconds}
        detail["plan"] = run.setup(clock.mark)
        setups = [clock.total_s()]
        detail["setup_phases"] = clock.phases
        if probe_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        detail["host"] = host.host_block(root, seed, allowed, core)
        for _ in range(wl.warmup_blocks):
            run.run_block()
        if not trace:
            result = _reduce(_timed_laps(run, seconds))
            pids = [os.getpid()] + [p for p in [run.server_pid()] if p]
            rss = sum(host.vm_hwm_mib(p) for p in pids)
        else:
            store = SpanStore()
            result, layers = _traced_round(run, seconds, store)
    finally:
        release()
        os.sched_setaffinity(0, allowed)
    _check_leaks(os.getpid())

    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        store.dump(out_dir / f"trace-{wl.name}.json")
        metrics = {
            m.name: {"value": float(layers.get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        # the other set-ups come last, when no server child of ours is left
        while len(setups) < SETUP_REPEATS:
            setups.append(_probe_setup(script, wl.name, seed))
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_us": result["op_p50_us"],
            "throughput_ops_s": result["throughput_ops_s"],
            "peak_rss_mb": rss,
        }
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in END_TO_END}
        detail["setup_samples_s"] = setups
    detail["metrics"] = metrics
    for key in ("calm_laps", "raw_p50_us", "slowdown", "block_rows"):
        detail[key] = result[key]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(out_dir / f"run-{wl.name}-trace{int(trace)}.json", "w") as fh:
        json.dump({**detail, **line}, fh, indent=1)
    for mname, m in metrics.items():
        print(f"{wl.name:22s} {mname:36s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
