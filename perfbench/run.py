#!/usr/bin/env python3
"""Closed-loop benchmark of the my_ocr_ray extraction engine.

One benchmark process owns one local Ray session and runs one engine job at a
time (closed loop): read parquet -> ``extract()`` -> write parquet.

    python3 perfbench/run.py --workload mixed_broadcast --seed 1 --seconds 12 --trace 0

A run generates its inputs and goldens from ``--seed`` (cached per generator
setting), measures Ray set-up five times, runs one warm-up job that is not
timed, then runs jobs back to back for ``--seconds`` and checks every output
document against its golden. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A readable
report, host facts included, goes to stderr; run records and trace spans go
to ``.perfbench_work/``.

With ``--trace 1`` the run also executes one traced job and reads its
``Dataset.stats()``, times the engine's decision and runner layers from
outside, replays a sample through every layer in this process with spans
around each kernel, and builds the CPU ledger.

Other entry points:
    python3 perfbench/run.py --all      # write BENCHMARK.json, run every workload
    python3 perfbench/selftest.py       # cleanup + output-check tests
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
RUN_DEADLINE_S = 150  # leaves time for cleanup inside the 180 s budget
REPLAY_DOCS = 400
WARMUP_DOCS = 200
RUNNER_PARTITIONS = 2

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def log(msg: str = "") -> None:
    print(msg, file=sys.stderr, flush=True)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def engine_digest() -> str:
    """Hash of the engine's sources: the key of a decision reference."""
    import my_ocr_ray

    h = hashlib.sha256()
    pkg = os.path.dirname(my_ocr_ray.__file__)
    for d, subdirs, files in sorted(os.walk(pkg)):
        subdirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                h.update(os.path.relpath(os.path.join(d, f), pkg).encode())
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Decisions:
    """extract()'s decisions per job, compared with every other job of the
    workload measured on the same engine sources (the first one seen is the
    reference), so a change of engine code starts a new reference."""

    def __init__(self, workload: str):
        self.path = os.path.join(WORK, "decisions", f"{workload}-{engine_digest()}.json")
        self.reference = None
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.reference = json.load(f)
        self.changed = 0
        self.seen: list[dict] = []

    def record(self, d: dict, label: str) -> None:
        self.seen.append(d)
        if self.reference is None:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with open(self.path, "w") as f:
                json.dump(d, f)
            self.reference = d
        elif d != self.reference:
            self.changed += 1
            log(f"!! DECISION CHANGED ({label}): {d} != reference {self.reference}")


def observe_decisions(job, media: str, actors_before: set) -> dict:
    from ray._private import state

    from perfbench.opstats import decisions, job_summary

    d = decisions(job_summary(job.dataset))
    new = [a for aid, a in state.actors().items() if aid not in actors_before]
    d["ocr_pool_actors"] = sum("OCRStage" in a["ActorClassName"] for a in new)
    d["media_strategy"] = "join" if d.pop("media_join") else media
    return d


def actor_ids() -> set:
    from ray._private import state

    return set(state.actors())


def check_job(job, expected, label: str) -> dict:
    from perfbench.check import check_docs, read_outputs

    res = check_docs(read_outputs(job.out_files), expected)
    acc = {k: ("n/a" if v is None else round(v, 6)) for k, v in res["span_acc"].items()}
    log(f"   check {label}: {res['docs']} docs, {res['mismatched']} mismatched "
        f"({res['missing']} missing, {res['extra_or_duplicate']} extra/dup), span acc {acc}")
    return res


def run(args, tree, holder: dict) -> dict:
    from perfbench import jobs, session
    from perfbench.inputs import ensure_inputs
    from perfbench.spec import WORKLOADS

    wl = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex[:8]
    facts = session.host_facts()
    log(f"== {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} run={run_id}")
    log(f"   host: affinity {facts['affinity_cpus']} CPUs, nproc {facts['nproc']} "
        f"(OMP_NUM_THREADS={facts['omp_num_threads']}; nproc honours it, Ray uses the "
        f"affinity mask), Ray logical CPUs {facts['ray_cpus']}")

    setups = []
    for _ in range(SETUP_REPEATS - 1 if args.trace == 0 else 0):
        s = session.RaySession(tree)
        holder["session"] = s
        setups.append(s.start())
        s.stop()
        holder["session"] = None
    s = session.RaySession(tree)
    holder["session"] = s
    setups.append(s.start())
    log(f"   setup_s samples: {[round(x, 3) for x in setups]}")

    inputs = ensure_inputs(wl.inputs(args.seed), WORK)
    counts = inputs.counts()
    expected = inputs.expected()
    log(f"   inputs: {counts['docs']} docs, spans {counts['spans']}")
    docs_files, media_files = inputs.docs_files(), inputs.media_files()
    out_root = os.path.join(WORK, "out", f"{wl.name}-{run_id}")
    decisions = Decisions(wl.name)

    def job(k, tracer=None, limit=None):
        return jobs.run_extract(docs_files, media_files, limit or counts["docs"],
                                os.path.join(out_root, f"job{k}"), wl.media, tracer, limit)

    # first jobs in a session run slow (worker imports, Ray Data's helper
    # actors); a small untimed job pays that before the window opens
    w = job("warmup", limit=WARMUP_DOCS)
    log(f"   warm-up job (not timed): {w.wall_s:.3f} s")
    del w

    if args.inject == "interrupt":
        import _thread

        threading.Timer(2.0, _thread.interrupt_main).start()

    timed, checks = [], []
    stat0 = session.proc_stat()
    tree.reset_peak()
    t_window = time.perf_counter()
    while True:
        before = actor_ids()
        c0 = tree.cpu_s()
        j = job(len(timed))
        j.cpu_s = tree.cpu_s() - c0
        timed.append(j)
        d = observe_decisions(j, wl.media, before)
        decisions.record(d, f"job {len(timed) - 1}")
        j.dataset = None
        log(f"   job {len(timed) - 1}: wall {j.wall_s:.3f} s, cpu {j.cpu_s:.3f} s, {d}")
        if time.perf_counter() - t_window >= args.seconds:
            break
    window = session.host_window(stat0, session.proc_stat())
    peak_mem = tree.peak_memory_bytes()
    log(f"   window: {time.perf_counter() - t_window:.3f} s, host steal "
        f"{window['steal_pct']:.2f}%, host idle {window['idle_frac']:.3f}")

    if args.inject == "corrupt":
        from perfbench.check import corrupt_one_doc

        corrupt_one_doc(timed[0].out_files[0])
    for k, j in enumerate(timed):
        checks.append(check_job(j, expected, f"job {k}"))

    docs = sum(j.docs for j in timed)
    wall = sum(j.wall_s for j in timed)
    cpu = sum(j.cpu_s for j in timed)
    e2e = {
        "docs_per_s": docs / wall,
        "cpu_s_per_kdoc": cpu / (docs / 1000),
        "peak_rss_mb": peak_mem / 1e6,
        "setup_s": statistics.median(setups),
    }
    mismatched = sum(c["mismatched"] for c in checks)
    result = {"e2e": e2e, "attempted": docs, "failed": mismatched,
              "host": {**facts, **window}, "decisions": decisions, "run_id": run_id}
    log(f"   mismatch_frac {mismatched / docs:.6f} ({mismatched} of {docs} docs)")

    if args.trace == 1:
        result["layers"], extra = traced(args, wl, inputs, counts, expected, timed, job,
                                        decisions, tree, run_id)
        result["attempted"] += extra["attempted"]
        result["failed"] += extra["failed"]
    shutil.rmtree(out_root, ignore_errors=True)
    return result


def traced(args, wl, inputs, counts, expected, timed, job, decisions, tree, run_id):
    """The per-layer measurements of a ``--trace 1`` run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from perfbench import jobs, ledger, opstats, probes
    from perfbench.session import ROLES

    tracer = ledger.Tracer(run_id)
    before = actor_ids()
    snap0 = tree.snapshot()
    with tracer.span("job"):
        tj = job("traced", tracer=tracer)
    snap1 = tree.snapshot()
    tj.cpu_s = sum(snap1.values()) - sum(snap0.values())
    by_role, started = tree.cpu_by_role(snap0, snap1)
    d = observe_decisions(tj, wl.media, before)
    decisions.record(d, "traced job")
    layers = opstats.plan_layers(opstats.job_summary(tj.dataset))
    for name, lay in sorted(layers.items()):
        log(f"   op {name:18s} cpu {lay['cpu_s']:8.3f} s  wall {lay['wall_s']:7.3f} s  "
            f"rows_out {lay['rows_out']:7d}  skew {lay['skew']:.3f}  <- {lay['names']}")
    job_cpu = statistics.median(j.cpu_s for j in timed)
    job_wall = statistics.median(j.wall_s for j in timed)
    m = opstats.op_metrics(layers, tj.wall_s, tj.cpu_s, d["ocr_pool_actors"])
    checks = [check_job(tj, expected, "traced job")]
    tj.dataset = None

    for role in ROLES:
        m[f"proc.{role}.cpu_frac"] = by_role.get(role, 0.0) / tj.cpu_s
    m["proc.started_per_job"] = started
    log(f"   traced job CPU by process ({tj.cpu_s:.3f} s, {started} processes started):")
    for role, cpu in sorted(by_role.items(), key=lambda kv: -kv[1]):
        log(f"     {role:20s} {cpu:8.3f} s  {100 * cpu / tj.cpu_s:6.2f}%")
    m["extract.ocr_pool_actors"] = d["ocr_pool_actors"]
    m["extract.shuffle_partitions"] = d["shuffle_partitions"]
    m["extract.exchanges"] = d["exchanges"]
    m["extract.media_join"] = int(d["media_strategy"] == "join")
    m["extract.decisions_changed"] = decisions.changed
    costs = probes.extract_decision_costs(inputs)
    log(f"   auto-salt decision on these inputs: n_salt={costs.pop('_salt')}")
    m.update(costs)

    rj = jobs.run_partitioned(inputs, os.path.join(WORK, "out", f"runner-{run_id}"),
                              RUNNER_PARTITIONS)
    log(f"   runner: interrupted {rj.phases['interrupted_s']:.3f} s, "
        f"resumed {rj.phases['resume_s']:.3f} s (resume_s), skipped {rj.phases['skipped']}")
    checks.append(check_job(rj, expected, "partitioned runner"))
    m.update(probes.runner_costs(inputs, rj, WORK))
    shutil.rmtree(rj.phases["out_dir"], ignore_errors=True)

    # single-process replay of a sample of the workload, then the same
    # sample's spans in kind-pure batches for the per-kind OCR costs
    sample = pa.concat_tables(pq.read_table(f) for f in inputs.docs_files()).slice(0, REPLAY_DOCS)
    media = pq.read_table(inputs.media_files()[0])
    stage = ledger.make_stage(media)
    ledger.replay(sample, stage)  # warm caches and lazy state
    plain = ledger.replay(sample, stage)
    rtr = ledger.Tracer(run_id)
    traced_replay = ledger.replay(sample, stage, rtr)
    ctr = ledger.Tracer(run_id)
    cal_counts = ledger.kind_pure(sample, stage, ctr)
    units = ledger.layer_metrics(rtr.totals(), traced_replay, ctr.totals(), cal_counts)
    lk = ledger.media_lookup_costs(media)
    m["ocrstage.media_lookup.precompute_s"] = lk["precompute_s"]
    m["ocrstage.media_lookup.ms_per_kref"] = lk["ms_per_kref"]
    led = ledger.ledger(units, counts, int(m["op.explode_strip_ocr.rows_out"]), job_cpu)
    m.update({k: v for k, v in units.items() if not k.startswith("_")})
    replay_kdoc = plain["cpu_s"] / (plain["docs"] / 1000)
    m["ledger.attributed_cpu_frac"] = led["attributed_frac"]
    m["ledger.kernel_bound_ratio"] = replay_kdoc / (job_cpu / (tj.docs / 1000))
    for k, v in led["frac"].items():
        m[f"ledger.{k}.cpu_frac"] = v
    m["trace.job_overhead_frac"] = tj.wall_s / job_wall - 1.0
    m["trace.replay_overhead_frac"] = traced_replay["cpu_s"] / plain["cpu_s"] - 1.0

    log(f"   ledger (engine CPU per job {job_cpu:.3f} s; replay {replay_kdoc:.3f} s/kdoc):")
    for k, v in sorted(led["cpu_s"].items(), key=lambda kv: -kv[1]):
        log(f"     {k:16s} {v:8.3f} s  {100 * led['frac'][k]:6.2f}% of engine CPU")
    log(f"     {'unattributed':16s} {job_cpu - sum(led['cpu_s'].values()):8.3f} s  "
        f"{100 * (1 - led['attributed_frac']):6.2f}% (Ray runtime: scheduling, "
        f"serialization, actor start-up, daemons)")

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces", f"{wl.name}-s{args.seed}-{run_id}.jsonl")
    ledger.dump_spans(trace_path, (tracer, rtr, ctr))
    log(f"   spans: {trace_path}")
    extra = {"attempted": sum(c["docs"] for c in checks),
             "failed": sum(c["mismatched"] for c in checks)}
    return m, extra


def emit(args, result) -> dict:
    from perfbench.spec import END_TO_END, PER_LAYER

    if args.trace == 0:
        wanted = [(n, u) for n, u, _, _ in END_TO_END]
        values = result["e2e"]
    else:
        wanted = [(n, u) for n, u, _ in PER_LAYER]
        host = result["host"]
        values = {**result["layers"],
                  "host.affinity_cpus": host["affinity_cpus"], "host.nproc": host["nproc"],
                  "host.ray_cpus": host["ray_cpus"], "host.steal_pct": host["steal_pct"],
                  "host.idle_frac": host["idle_frac"]}
    missing = [n for n, _ in wanted if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted},
    }


def report(args, result, out: dict) -> None:
    from perfbench.spec import END_TO_END

    e2e = result["e2e"]
    log(f"   end-to-end ({args.workload}):")
    for n, u, _, _ in END_TO_END:
        log(f"     {n:16s} {e2e[n]:12.4f} {u}")
    log(f"     {'mismatch_frac':16s} {result['failed'] / result['attempted']:12.6f} ratio")
    if args.trace == 1:
        log(f"     {'resume_s':16s} {result['layers']['runner.resume_s']:12.4f} s")
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    record = {"args": vars(args), "run_id": result["run_id"], "host": result["host"],
              "decisions": result["decisions"].seen, "e2e": e2e, "output": out}
    with open(os.path.join(WORK, "runs", f"{args.workload}-s{args.seed}-t{args.trace}-"
                           f"{result['run_id']}.json"), "w") as f:
        json.dump(record, f, indent=1)


def run_all(args) -> int:
    """BENCHMARK.json, then every workload with --trace 0 and --trace 1."""
    from perfbench.spec import RUN_SECONDS, WORKLOADS, benchmark_json

    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
    rows, code = [], 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(RUN_SECONDS),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"!! {name} trace={trace} failed with exit code {proc.returncode}")
                code = 1
                continue
            res = json.loads(lines[-1])
            rows.append((name, trace, res))
            code |= 0 if res["correct"] else 1
    for name, trace, res in rows:
        print(f"{name} trace={trace} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for k, v in res["metrics"].items():
            print(f"  {k:48s} {v['value']:14.6g} {v['unit']}")
    return code


def main(argv=None) -> int:
    from perfbench.spec import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="write BENCHMARK.json, then run every workload in both modes")
    # self-test hooks: "interrupt" stops the first timed job from a timer,
    # "corrupt" alters one output document before the check
    ap.add_argument("--inject", choices=("interrupt", "corrupt"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        from perfbench.spec import RUN_SECONDS

        args.seconds = RUN_SECONDS
    try:
        import my_ocr_ray  # noqa: F401
    except ImportError as e:
        log(f"cannot import the engine under test: {e}")
        return 2

    from perfbench.session import ProcessTree

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    tree = ProcessTree()
    tree.start()
    holder: dict = {"session": None}
    out, code = None, 1
    try:
        result = run(args, tree, holder)
        out = emit(args, result)
        report(args, result, out)
        code = 0 if out["correct"] else 1
    except BaseException as e:  # every exit path ends the session below
        log("".join(traceback.format_exception(e)))
        code = 130 if isinstance(e, KeyboardInterrupt) else 1
        out = None
    finally:
        signal.alarm(0)
        try:
            if holder["session"] is not None:
                holder["session"].stop()
            killed = tree.reap()
            if killed:
                log(f"   killed {len(killed)} processes that outlived the session")
        except BaseException as e:
            log(f"!! cleanup failed: {e}")
            out, code = None, 1
        finally:
            tree.stop()
    if out is not None:
        print(json.dumps(out), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
