"""What the harness reads from /proc, and the leak check it relies on."""

import os
import subprocess
import sys
import time

import pytest

from harness import host


def test_live_children_are_listed_and_reaped_ones_are_not():
    me = os.getpid()
    before = host.child_pids(me)
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        assert host.child_pids(me) == sorted(before + [child.pid])
        assert host.cpu_seconds(child.pid) >= 0.0
        assert host.vm_hwm_mib(child.pid) > 1.0
    finally:
        child.kill()
        child.wait(timeout=10)
    deadline = time.monotonic() + 5
    while host.child_pids(me) != before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert host.child_pids(me) == before


def test_a_child_that_overruns_is_killed_with_its_own_children(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    parent = (
        "import subprocess, sys, time\n"
        "g = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(g.pid))\n"
        "time.sleep(60)\n"
    )
    with pytest.raises(subprocess.TimeoutExpired):
        host.run_child([sys.executable, "-c", parent], timeout_s=1.5)
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while os.path.exists(f"/proc/{grandchild}") and time.monotonic() < deadline:
        time.sleep(0.02)  # init reaps it
    assert not os.path.exists(f"/proc/{grandchild}")
    assert host.child_pids(os.getpid()) == []


def test_a_child_that_ends_in_time_is_reported_like_subprocess_run():
    done = host.run_child(
        [sys.executable, "-c", "import sys; print('out'); sys.exit(3)"], 30)
    assert (done.returncode, done.stdout.strip()) == (3, "out")


def test_the_resource_tracker_is_a_child_until_it_is_stopped():
    from multiprocessing import resource_tracker

    me = os.getpid()
    before = host.child_pids(me)
    resource_tracker.ensure_running()
    assert len(host.child_pids(me)) == len(before) + 1
    host.stop_resource_tracker()  # waits: no polling needed afterwards
    assert host.child_pids(me) == before
    host.stop_resource_tracker()  # not running: nothing to do


def test_pinning_moves_every_thread_of_a_process():
    allowed = os.sched_getaffinity(0)
    core = host.bench_core(allowed)
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        host.pin_tasks(child.pid, core)
        assert os.sched_getaffinity(child.pid) == {core}
    finally:
        child.kill()
        child.wait(timeout=10)


def test_shm_leftovers_only_sees_this_pids_segments():
    assert host.shm_leftovers(os.getpid()) == []


def test_a_steady_environment_is_left_alone(monkeypatch):
    for key, value in host.MALLOC_ENV.items():
        monkeypatch.setenv(key, value)
    for var in host.THREAD_CAP_VARS:
        monkeypatch.setenv(var, "8")  # restored when the test ends
    monkeypatch.setattr(os, "execv", lambda *a: (_ for _ in ()).throw(
        AssertionError("re-executed although the environment was set")))
    host.steady_environment(["run.py"])
    assert all(os.environ[v] == "1" for v in host.THREAD_CAP_VARS)
