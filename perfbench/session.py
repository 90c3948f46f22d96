"""Ray session lifecycle, process-tree accounting and host facts.

The benchmark owns exactly one local Ray session at a time. Every process
that session starts (GCS, raylet, workers, actors) is a descendant of the
benchmark process, so CPU time and resident memory are read from that
process tree, and cleanup can prove that each of them has exited.
"""
from __future__ import annotations

import logging
import os
import shutil
import threading
import time

import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
import psutil

RAY_CPUS = 4  # logical CPUs: the OCR pool must fit next to the aggregators
OBJECT_STORE_BYTES = 512 * 1024 * 1024
EXIT_WAIT_S = 15.0
MEMORY_EVERY = 5  # read PSS on every 5th sample: smaps costs ~2 ms a process


def proc_stat() -> tuple[int, int, int]:
    """(total, idle + iowait, steal) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    return sum(vals), vals[3] + vals[4], vals[7] if len(vals) > 7 else 0


def host_window(before: tuple, after: tuple) -> dict:
    """Host steal % and idle share between two :func:`proc_stat` samples."""
    total = after[0] - before[0]
    if total <= 0:
        return {"steal_pct": 0.0, "idle_frac": 0.0}
    return {
        "steal_pct": 100.0 * (after[2] - before[2]) / total,
        "idle_frac": (after[1] - before[1]) / total,
    }


def host_facts() -> dict:
    """CPU counts as each tool sees them. ``nproc`` honours
    ``OMP_NUM_THREADS``, so it can print 1 on a host whose affinity mask
    (what the Ray workers actually run on) holds more CPUs."""
    affinity = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS")
    return {
        "affinity_cpus": affinity,
        "nproc": min(int(omp), affinity) if omp and omp.isdigit() else affinity,
        "omp_num_threads": omp,
        "ray_cpus": RAY_CPUS,
    }


class ProcessTree:
    """Every descendant of this process seen so far, for accounting and
    for the final wait-until-exited check.

    A background sampler rescans the tree every ``interval`` seconds,
    keeps each process's last-seen CPU time (so the CPU of an actor that
    exits between two reads of the total is still counted, up to one
    interval) and tracks the peak resident memory of the tree. Memory is
    summed PSS: a page shared by several processes (Ray's object store,
    which every worker maps, and shared libraries) is split between them,
    so the tree's total counts it once. The sampler thread's own CPU time
    is left out of this process's CPU.
    """

    def __init__(self, interval: float = 0.1):
        self.me = psutil.Process()
        self.interval = interval
        self._procs: dict[tuple[int, float], psutil.Process] = {}
        self._cpu: dict[tuple[int, float], float] = {}
        self._role: dict[tuple[int, float], str] = {}
        self._peak_mem = 0
        self._samples = 0
        self._sampler_cpu = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self, memory: bool = False) -> float:
        """Rescan the tree; CPU seconds of every process ever seen. Reads
        memory too when ``memory`` is set or on every MEMORY_EVERY-th call."""
        try:
            procs = [self.me, *self.me.children(recursive=True)]
        except psutil.Error:
            procs = [self.me]
        self._samples += 1
        memory = memory or self._samples % MEMORY_EVERY == 0
        pss = 0
        for p in procs:
            try:
                with p.oneshot():
                    key = (p.pid, p.create_time())
                    t = p.cpu_times()
                    mem = p.memory_full_info().pss if memory else 0
                role = self._role.get(key)
                if role not in _FINAL_ROLES:
                    role = _better_role(role, _role_of(p, p.pid == self.me.pid))
            except psutil.Error:
                continue
            cpu = t.user + t.system
            if p.pid == self.me.pid:
                cpu -= self._sampler_cpu
            with self._lock:
                self._procs.setdefault(key, p)
                self._cpu[key] = cpu
                self._role[key] = role
            pss += mem
        with self._lock:
            self._peak_mem = max(self._peak_mem, pss)
            return sum(self._cpu.values())

    def cpu_s(self) -> float:
        return self.sample()

    def snapshot(self) -> dict:
        """Per-process CPU seconds now (for :meth:`cpu_by_role`)."""
        self.sample()
        with self._lock:
            return dict(self._cpu)

    def cpu_by_role(self, before: dict, after: dict) -> tuple[dict, int]:
        """CPU seconds per process role between two snapshots, and how many
        processes started in between."""
        out: dict[str, float] = {}
        with self._lock:
            for key, cpu in after.items():
                role = self._role.get(key, "ray_daemons")
                out[role] = out.get(role, 0.0) + cpu - before.get(key, 0.0)
        return out, sum(1 for key in after if key not in before)

    def reset_peak(self) -> None:
        with self._lock:
            self._peak_mem = 0
        self.sample(memory=True)

    def peak_memory_bytes(self) -> int:
        """Peak summed PSS since :meth:`reset_peak`."""
        self.sample(memory=True)
        with self._lock:
            return self._peak_mem

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()
            self._sampler_cpu = time.thread_time()

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="proc-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def alive(self) -> list[psutil.Process]:
        self.sample()
        with self._lock:
            procs = [p for p in self._procs.values() if p.pid != self.me.pid]
        return [p for p in procs if _running(p)]

    def reap(self, timeout: float = EXIT_WAIT_S) -> list[int]:
        """Wait until every process seen has exited; kill what is left after
        ``timeout``. Returns the pids that had to be killed."""
        _, alive = psutil.wait_procs(self.alive(), timeout=timeout)
        killed = []
        for p in alive:
            try:
                p.kill()
                killed.append(p.pid)
            except psutil.Error:
                pass
        psutil.wait_procs(alive, timeout=5)
        still = [p.pid for p in self.alive()]
        if still:
            raise RuntimeError(f"processes still alive after cleanup: {still}")
        return killed


# process roles, most specific first: a Ray worker that ever hosted an actor
# is charged to that actor, start-up included
ROLES = ("client", "ocr_actor", "shuffle_aggregators", "ray_daemons", "task_workers")
_FINAL_ROLES = {"client", "ocr_actor", "shuffle_aggregators", "ray_daemons"}
_DAEMON_ACTORS = ("_StatsActor", "AutoscalingRequester", "ActorLocationTracker")


def _role_of(p: psutil.Process, is_me: bool) -> str:
    if is_me:
        return "client"  # this process: the benchmark and Ray Data's executor
    cmd = " ".join(p.cmdline())
    if "default_worker.py" in cmd:
        return "task_workers"  # a worker before its first task or actor
    if not cmd.startswith("ray::"):
        return "ray_daemons"  # raylet, GCS, agents, log monitor
    title = cmd[len("ray::"):]
    if "OCRStage" in title:
        return "ocr_actor"
    if title.startswith("HashShuffleAggregator"):
        return "shuffle_aggregators"
    if title.startswith(_DAEMON_ACTORS):
        return "ray_daemons"
    return "task_workers"  # idle workers and plain tasks


def _better_role(old: str | None, new: str) -> str:
    if old is None:
        return new
    return old if ROLES.index(old) < ROLES.index(new) else new


def _running(p: psutil.Process) -> bool:
    try:
        return p.is_running() and p.status() != psutil.STATUS_ZOMBIE
    except psutil.Error:
        return False


def _noop():
    return 1


class RaySession:
    """One local Ray session; ``start()`` returns the set-up seconds
    (session start until a no-op task has round-tripped). The session lives
    in Ray's default temporary directory (the checkout path can be too long
    for Ray's socket paths); ``stop()`` removes its session directory."""

    def __init__(self, tree: ProcessTree):
        self.tree = tree
        self.session_dir: str | None = None

    def start(self) -> float:
        import ray

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level=logging.ERROR,
        )
        ray.get(ray.remote(_noop).remote())
        setup = time.perf_counter() - t0
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        self.tree.sample()
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return setup

    def stop(self) -> None:
        import ray

        self.tree.sample()
        try:
            ray.shutdown()
        finally:
            self.tree.reap()
            if self.session_dir is not None:
                shutil.rmtree(self.session_dir, ignore_errors=True)
