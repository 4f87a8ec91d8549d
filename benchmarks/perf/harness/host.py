"""What the harness reads from and does to the host: pinning, /proc, leaks.

Nothing here imports NumPy at module level: :func:`steady_environment` has
to run before NumPy is first imported for OpenBLAS to honour the thread cap.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

#: un-capped OpenBLAS workers on a pinned process turn every large request
#: into a fixed ~32 ms of spinning (README, "noise findings")
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: glibc malloc settings that keep freed memory in the process: with the
#: defaults a call that allocates 8 MiB buffers gets fresh pages on some
#: calls and recycled ones on others, and a page fault costs ~4 us in this
#: VM, so the same 8 ms kernel reads 8.4 or 12.7 ms (README, "noise findings")
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 32),
              "MALLOC_MMAP_THRESHOLD_": str(1 << 32)}


def steady_environment(argv: list[str]) -> None:
    """Fix what the process environment decides, re-executing once if needed.

    One BLAS/OpenMP thread per process and the malloc settings above, for
    this process and every child.  malloc reads its settings when the
    process starts, so if they were not already there this process is
    replaced by one that has them.
    """
    for var in THREAD_CAP_VARS:
        os.environ[var] = "1"
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, *argv])


def bench_core(allowed: set[int]) -> int:
    """The one core the bench process and its server child both run on.

    Two vCPUs of this sandbox drift between speed states independently, and
    waking a thread on the other one costs ~200 us of hypervisor time per
    hop (route_pingpong_n64 reads 740 us across cores, 280 us on one), so a
    request path spread over both measures the hypervisor.  On one core the
    loop is still closed, client and server just take turns, and one
    calibration covers both.
    """
    return min(allowed)


def pin_tasks(pid: int, core: int) -> None:
    """Pin every thread of ``pid`` (threads born later inherit the mask)."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {core})
        except ProcessLookupError:  # thread exited between list and pin
            pass


def _stat_fields(pid: int) -> list[str]:
    # comm may contain spaces and parentheses; fields resume after the last ')'
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def run_child(argv: list[str], timeout_s: float):
    """``subprocess.run`` for a harness child that may have children itself.

    The child leads its own process group; if it overruns ``timeout_s`` (or
    this process is interrupted while waiting) the whole group is killed
    and the child waited for, so a shard it had forked goes with it.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def stop_resource_tracker() -> None:
    """End ``multiprocessing``'s resource tracker and wait for it.

    Every shared-memory user (``repro.mp``) starts this helper.  Python
    3.11 leaves it to notice, some milliseconds after the interpreter has
    gone, that its pipe was closed: a process of ours that outlives the
    run.  Call this once the pools that feed it are closed.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is not None:
        module._resource_tracker._stop()  # closes the pipe, then waitpid


def child_pids(parent: int) -> list[int]:
    """Live direct children of ``parent`` (zombies are not alive)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if int(fields[1]) == parent and fields[0] != "Z":
            out.append(int(entry))
    return sorted(out)


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` so far, from ``/proc/<pid>/stat``."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def shm_leftovers(pid: int) -> list[str]:
    """``/dev/shm`` segments ``repro.mp`` created for ``pid`` and left behind.

    ``SharedArena`` names its segments ``repro-mp-<pid % 100000>-<hex>``.
    """
    prefix = f"repro-mp-{pid % 100000}-"
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(prefix))
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_block(root: Path, seed: int, allowed: set[int], core: int) -> dict:
    """Everything needed to say which machine and toolchain a number is from."""
    import numpy as np
    from repro.codegen import compiler_fingerprint

    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_allowed": sorted(allowed),
        "bench_and_server_core": core,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
        .strip(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAP_VARS},
        "malloc": {v: os.environ.get(v) for v in MALLOC_ENV},
        "switch_interval_s": sys.getswitchinterval(),
        "compiler": compiler_fingerprint(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
