#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

1. A run interrupted in the middle of its first timed job exits non-zero,
   prints no result, and leaves no process it started alive.
2. A run whose output has one corrupted document reports ``correct: false``
   and ``failed`` >= 1 (mismatch_frac > 0), and leaves no process alive.
3. A normal short run reports ``correct: true`` and leaves no process alive.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result, within 180 s.

Each run is watched from outside: every descendant seen while it runs must
be gone once it has returned.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import ray  # noqa: E402,F401  (puts Ray's bundled psutil on sys.path)
import psutil  # noqa: E402

WORKLOAD = "mixed_broadcast"  # the cheaper workload
TIMEOUT_S = 180


def watched(args: list[str], cwd: str = ROOT) -> tuple[int, str, float, list]:
    """Run the benchmark; (exit code, stdout, seconds, processes still alive)."""
    t0 = time.time()
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    seen: dict[tuple[int, float], psutil.Process] = {}
    root = psutil.Process(proc.pid)
    out: list[str] = []
    import threading

    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    while proc.poll() is None:
        if time.time() - t0 > TIMEOUT_S:
            proc.kill()
            break
        try:
            for p in root.children(recursive=True):
                try:
                    seen.setdefault((p.pid, p.create_time()), p)
                except psutil.Error:
                    pass
        except psutil.Error:
            pass
        time.sleep(0.05)
    proc.wait()
    reader.join()
    alive = []
    for p in seen.values():
        try:
            if p.is_running() and p.status() != psutil.STATUS_ZOMBIE:
                alive.append((p.pid, " ".join(p.cmdline())[:80]))
        except psutil.Error:
            pass
    return proc.returncode, "".join(out), time.time() - t0, alive


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    base = ["--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0"]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    rc, out, dt, alive = watched([*base, "--inject", "interrupt"])
    expect(rc != 0, f"interrupted run exits non-zero (rc={rc}, {dt:.0f} s)")
    expect(last_json(out) is None, "interrupted run prints no result")
    expect(not alive, f"interrupted run leaves no process alive {alive}")

    rc, out, dt, alive = watched([*base, "--inject", "corrupt"])
    res = last_json(out) or {}
    expect(res.get("correct") is False and res.get("failed", 0) >= 1,
           f"corrupted output is caught: correct={res.get('correct')} failed={res.get('failed')} "
           f"attempted={res.get('attempted')}")
    expect(not alive, f"corrupt run leaves no process alive {alive}")

    rc, out, dt, alive = watched(base)
    res = last_json(out) or {}
    expect(rc == 0 and res.get("correct") is True and res.get("failed") == 0,
           f"normal run is correct (rc={rc}, {dt:.0f} s)")
    expect(not alive, f"normal run leaves no process alive {alive}")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, out, dt, alive = watched(base, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and last_json(out) is None and dt < TIMEOUT_S,
           f"without the engine: rc={rc}, no result, {dt:.0f} s")
    expect(not alive, f"bare run leaves no process alive {alive}")

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
