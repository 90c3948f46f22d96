#!/usr/bin/env python
"""Benchmark harness: flagship extraction throughput + query battery timings.

Prints ONE JSON line:
  {"metric": "extract_total_sec", "value": N, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ..., "n_docs": ...}

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).

--scaling: runs the flagship job in fresh processes as 3 interleaved
(num_cpus=8, num_cpus=32) pairs on the same pre-generated corpus and
reports the MEDIAN pair's throughputs and scaling efficiency plus every
pair (sandbox stand-in for N vs 4N nodes); result is appended to
BASELINE.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SEED = 13
BENCH_TMP = "/tmp/myocr_bench"

# --- host idle gate (scaling legs are meaningless on a polluted window) ---
# busy fraction of ALL host CPUs measured over a short interval from
# /proc/stat — unlike loadavg it is instantaneous, so it is NOT polluted by
# the decaying load average of our own just-finished leg; loadavg(1m) is
# recorded alongside as audit evidence.
GATE_MAX_BUSY_PCT = 8.0
GATE_INTERVAL_SEC = 3.0
GATE_RETRY_SEC = 60
GATE_TIMEOUT_SEC = 1200


def _stat_snap() -> tuple[int, int, int]:
    """(total, idle+iowait, steal) jiffies from /proc/stat line 1."""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals), vals[3] + vals[4], steal


def _host_busy_pct(interval: float = GATE_INTERVAL_SEC) -> float:
    t0, i0, _ = _stat_snap()
    time.sleep(interval)
    t1, i1, _ = _stat_snap()
    total = t1 - t0
    return 100.0 * (1 - (i1 - i0) / total) if total else 0.0


def _leg_steal_pct(before, after) -> float:
    """Hypervisor steal% ACROSS a leg (between two _stat_snap()s) — the
    direct measurement of foreign load arriving DURING the measurement,
    which the pre-leg idle gate by construction cannot see. This VM runs
    on a shared host: the round-4 'polluted window' audits (both leg
    tiers suppressed together on fixed code) are exactly what nonzero
    steal looks like."""
    total = after[0] - before[0]
    return 100.0 * (after[2] - before[2]) / total if total else 0.0


def _gate_idle_window(label: str) -> dict:
    """Block until the host is idle (foreign busy% below threshold) or the
    timeout passes; returns the per-leg gate evidence that goes next to the
    measurement in BASELINE.md."""
    deadline = time.time() + GATE_TIMEOUT_SEC
    waited = 0
    while True:
        busy = _host_busy_pct()
        load1 = os.getloadavg()[0]
        if busy <= GATE_MAX_BUSY_PCT or time.time() > deadline:
            return {
                "leg": label,
                "busy_pct": round(busy, 2),
                "load1": round(load1, 2),
                "gate_waited_sec": waited,
                "gated_ok": busy <= GATE_MAX_BUSY_PCT,
            }
        print(
            f"# idle-gate: {label} deferred (busy {busy:.1f}% > "
            f"{GATE_MAX_BUSY_PCT}%, load1 {load1:.2f}); retry in {GATE_RETRY_SEC}s",
            file=sys.stderr,
        )
        time.sleep(GATE_RETRY_SEC)
        waited += GATE_RETRY_SEC


def _ray_init(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            # worker logs stay in the Ray session files: shipping every
            # task's stderr to the driver halves 32-CPU throughput at 1.6M
            # docs (measured 291s vs 141s — ~800 tasks each emitting Ray
            # Data schema-dedup warnings backpressure the log pipeline)
            log_to_driver=False,
        )
    return ray


def corpus_dir(n_docs: int) -> str:
    return os.path.join(BENCH_TMP, f"corpus_{n_docs}_{SEED}")


def ensure_corpus(n_docs: int) -> str:
    """Generate the synthetic interleaved corpus once (not timed)."""
    from my_ocr_ray.synth import ensure_corpus as _ensure

    return _ensure(n_docs, seed=SEED, base_dir=BENCH_TMP)


def run_flagship(
    n_docs: int, num_cpus: int, out_dir: str, media: str = "broadcast"
) -> dict:
    """Timed: read parquet -> extract -> write parquet (fully streaming).

    ``media`` selects the span<-bytes strategy: "broadcast"
    (``load_media_lookup``), "join" (media-table hash shuffle join — the
    100-TB path), or "auto" (``resolve_media`` decides from footer bytes vs
    the object store size).
    """
    import glob
    import shutil

    import ray.data

    from my_ocr_ray.pipelines.extract import (
        extract,
        load_media_lookup,
        resolve_media,
    )

    corpus = ensure_corpus(n_docs)
    media_files = sorted(glob.glob(f"{corpus}/media/*.parquet"))
    docs_files = sorted(glob.glob(f"{corpus}/documents/*.parquet"))
    shutil.rmtree(out_dir, ignore_errors=True)

    t0 = time.time()
    # granularity ~25 map tasks per CPU: fine enough to feed the OCR workers
    # through ramp-up and keep the tail quantum ~4%, coarse enough that
    # per-task dispatch and shuffle messaging (O(blocks x partitions)) stay
    # negligible at low CPU counts
    n_blocks = max(num_cpus, min(25 * num_cpus, max(1, n_docs // 500)))
    ds = ray.data.read_parquet(docs_files, override_num_blocks=n_blocks)
    if media == "broadcast":
        lookup = load_media_lookup(media_files)
        result = extract(ds, media_lookup_ref=lookup, ocr_batch_size=1024)
    elif media == "join":
        media_ds = ray.data.read_parquet(
            media_files, columns=["media_ref", "bytes"]
        )
        result = extract(ds, media_ds=media_ds, ocr_batch_size=1024)
    else:  # auto: resolve_media picks from footer bytes vs object store size
        result = extract(ds, **resolve_media(media_files), ocr_batch_size=1024)
    result.write_parquet(out_dir)
    wall = time.time() - t0
    return {"wall_sec": wall, "docs_per_sec": n_docs / wall, "n_docs": n_docs}


def run_queries(sf_dir: str) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entry

    import ray.data

    out = {}
    for name, fn in entry.queries().items():
        t0 = time.time()
        res = fn(sf_dir)
        if isinstance(res, ray.data.Dataset):
            # consume fully WITHOUT driver materialization: stream batches
            # through and drop them (results range from 1 row to the whole
            # exploded span table)
            for _ in res.iter_batches(batch_size=None, batch_format="pyarrow"):
                pass
        out[name] = round(time.time() - t0, 3)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="verify bench-scale output against the golden corpus")
    ap.add_argument("--flagship-only", action="store_true")
    ap.add_argument("--cpus", type=int, default=None)
    ap.add_argument("--n-docs", type=int, default=None)
    ap.add_argument(
        "--media", choices=("broadcast", "join", "auto"), default="broadcast",
        help="flagship media strategy (join = the 100-TB shuffle path)",
    )
    ap.add_argument(
        "--endurance", action="store_true",
        help="one long flagship run with object-store peak tracking",
    )
    args = ap.parse_args()

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = args.cpus or int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf = os.path.basename(sf_dir.rstrip("/")).replace("sf", "")

    if args.n_docs:
        n_docs = args.n_docs
    else:
        import pyarrow.parquet as pq

        # big enough that fixed costs (actor startup, shuffle setup) amortize:
        # 20x the sf documents table (sf0.1 -> 100k interleaved docs)
        n_docs = 20 * pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    if args.scaling:
        if not args.n_docs:
            # scaling needs a long-enough job that fixed costs (cold worker
            # start + imports + media index ~20s) amortize — the target
            # workload is 10^12 docs; a short job measures startup, not
            # steady-state scaling. 16x after the glyph/PDF kernel speedups
            # (~1.5x): at 8x the 32-CPU leg finished in ~60s and the fixed
            # ~15s cost alone read as an 0.78 "efficiency"; 16x restores the
            # pre-speedup job LENGTH, which is what amortization is about
            n_docs *= 16
        # INTERLEAVED pairs, not best-of-N per leg: on a shared host the
        # machine state drifts between runs, and independently taking each
        # leg's max can pair an anomalously fast 8-CPU sample with a normal
        # 32-CPU one (measured: 0.663 "efficiency" from exactly that, vs
        # 0.87-0.94 in any same-window sequential sweep). Each (8, 32) pair
        # runs back-to-back so both legs see the same machine state; the
        # reported efficiency is the MEDIAN over the pairs (below).
        gates: list[dict] = []

        def one_run(cpus: int, pair_idx: int, retry: int) -> tuple[float, float]:
            # idle-gate every leg: defer while foreign CPU load is present,
            # and record the per-leg (busy%, load1) evidence next to the
            # measurement so a polluted window is visible in the data, not
            # just in after-the-fact prose. The gate samples BEFORE the
            # leg; hypervisor steal measured ACROSS the leg catches foreign
            # load that arrives during it -> (docs_per_sec, steal_pct).
            # the label carries the retry index: every retried leg's gate is
            # kept, and only the last retry of a pair reaches all_pairs
            gates.append(
                _gate_idle_window(f"pair{pair_idx} retry{retry} cpus={cpus}")
            )
            cmd = [sys.executable, __file__, "--flagship-only",
                   "--cpus", str(cpus), "--n-docs", str(n_docs),
                   "--media", args.media]
            env = dict(os.environ, GRAFT_SF_DIR=sf_dir)
            before = _stat_snap()
            out = subprocess.run(cmd, capture_output=True, text=True, env=env)
            steal = _leg_steal_pct(before, _stat_snap())
            gates[-1]["leg_steal_pct"] = round(steal, 2)
            line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
            return json.loads(line)["docs_per_sec"], steal

        # MEDIAN of >= 3 interleaved pairs (round-3): headlining the
        # cleanest pair is a best-of selection; the median is robust to one
        # polluted window in either direction while still ignoring a single
        # outlier pair. A pair either of whose legs ran under measurable
        # hypervisor steal is re-run (bounded retries): its throughputs
        # measure the neighbors' load, not this engine.
        # our saturated leg demands every vCPU, so even light neighbor
        # activity registers as steal; the suppressed windows measured
        # >30% effective loss, so 2% separates signal from scheduler noise
        MAX_LEG_STEAL_PCT = 2.0
        PAIR_RETRIES = 2
        pairs = []
        for attempt in range(3):  # first pair also warms the page cache
            for retry in range(PAIR_RETRIES + 1):
                a, s8 = one_run(8, attempt, retry)
                b, s32 = one_run(32, attempt, retry)
                if max(s8, s32) <= MAX_LEG_STEAL_PCT or retry == PAIR_RETRIES:
                    if max(s8, s32) > MAX_LEG_STEAL_PCT:
                        print(
                            f"# pair {attempt}: steal ({s8:.2f}%, {s32:.2f}%) "
                            f"still above {MAX_LEG_STEAL_PCT}% after "
                            f"{PAIR_RETRIES} retries; recording as-is",
                            file=sys.stderr,
                        )
                    break
                print(
                    f"# pair {attempt} retry {retry + 1}: leg steal "
                    f"({s8:.2f}%, {s32:.2f}%) > {MAX_LEG_STEAL_PCT}%",
                    file=sys.stderr,
                )
            pairs.append((a, b))
        effs = sorted((b / a) / 4.0 for a, b in pairs)
        eff = effs[len(effs) // 2]
        t8, t32 = next(p for p in pairs if abs((p[1] / p[0]) / 4.0 - eff) < 1e-12)
        payload = {
            "metric": "scaling_efficiency_8_to_32",
            "value": round(eff, 3),
            "unit": "ratio",
            "aggregation": "median of 3 interleaved pairs",
            "docs_per_sec_8": round(t8, 2),
            "docs_per_sec_32": round(t32, 2),
            "speedup": round(t32 / t8, 3),
            "all_pairs": [
                [round(a, 2), round(b, 2), round((b / a) / 4.0, 3)]
                for a, b in pairs
            ],
            "media": args.media,
            "gates": gates,
            "n_docs": n_docs,
            "sf": sf,
        }
        print(json.dumps(payload))
        _record_baseline(payload)
        return

    _ray_init(num_cpus)
    out_dir = os.path.join(BENCH_TMP, f"out_{num_cpus}")
    if args.endurance:
        _run_endurance(n_docs, num_cpus, out_dir, args.media, sf)
        return
    flag = run_flagship(n_docs, num_cpus, out_dir, media=args.media)
    if args.check:
        import glob

        import pyarrow.dataset as pads
        import ray.data

        from my_ocr_ray.pipelines.evaluate import extraction_accuracy

        corpus = corpus_dir(n_docs)
        expected = pads.dataset(
            sorted(glob.glob(f"{corpus}/expected/*.parquet")), format="parquet"
        ).to_table()
        got = ray.data.read_parquet(
            sorted(glob.glob(f"{out_dir}/*.parquet"))
        )
        flag["accuracy"] = extraction_accuracy(got, expected)
    queries = {} if args.flagship_only else run_queries(sf_dir)
    payload = {
        "metric": "extract_total_sec",
        "value": round(flag["wall_sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": num_cpus,
        "docs_per_sec": round(flag["docs_per_sec"], 2),
        "n_docs": flag["n_docs"],
    }
    if "accuracy" in flag:
        payload["accuracy"] = flag["accuracy"]
    print(json.dumps(payload))
    import ray

    ray.shutdown()


def _run_endurance(
    n_docs: int, num_cpus: int, out_dir: str, media: str, sf: str
) -> None:
    """One long flagship run (streaming-stability proof): a sampler thread
    tracks peak object-store usage and spilled bytes while the pipeline
    runs; the result is appended to BASELINE.md."""
    import glob
    import threading

    import ray

    total_store = ray.cluster_resources().get("object_store_memory", 0.0)
    peak = {"used": 0.0}
    stop = threading.Event()

    def _spill_bytes() -> int:
        n = 0
        for d in glob.glob("/tmp/ray/session_*/ray_spilled_objects*"):
            for root, _, files in os.walk(d):
                for f in files:
                    try:
                        n += os.path.getsize(os.path.join(root, f))
                    except OSError:
                        pass
        return n

    def sampler():
        while not stop.wait(2.0):
            avail = ray.available_resources().get(
                "object_store_memory", total_store
            )
            peak["used"] = max(peak["used"], total_store - avail)

    th = threading.Thread(target=sampler, daemon=True)
    th.start()
    gate = _gate_idle_window(f"endurance cpus={num_cpus}")
    before = _stat_snap()
    flag = run_flagship(n_docs, num_cpus, out_dir, media=media)
    gate["leg_steal_pct"] = round(_leg_steal_pct(before, _stat_snap()), 2)
    stop.set()
    th.join()
    spilled = _spill_bytes()
    payload = {
        "metric": "endurance_docs_per_sec",
        "value": round(flag["docs_per_sec"], 2),
        "unit": "docs/sec",
        "wall_sec": round(flag["wall_sec"], 3),
        "n_docs": n_docs,
        "num_cpus": num_cpus,
        "media": media,
        "peak_object_store_gb": round(peak["used"] / 2**30, 2),
        "object_store_total_gb": round(total_store / 2**30, 2),
        "spilled_gb": round(spilled / 2**30, 2),
        "gate": gate,
        "sf": sf,
    }
    print(json.dumps(payload))
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
    with open(path, "a") as f:
        f.write(
            f"\n## Endurance run ({stamp})\n\n"
            f"- {n_docs} docs, {num_cpus} CPUs, media={media}: "
            f"{payload['value']} docs/s over {payload['wall_sec']}s\n"
            f"- peak object store: {payload['peak_object_store_gb']} GiB of "
            f"{payload['object_store_total_gb']} GiB; spilled "
            f"{payload['spilled_gb']} GiB\n"
            f"- idle gate at launch: busy {gate['busy_pct']}%, "
            f"load1 {gate['load1']}; hypervisor steal across the run: "
            f"{gate['leg_steal_pct']}%\n"
        )
    ray.shutdown()


def _record_baseline(payload: dict) -> None:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [
        "",
        f"## Measured scaling ({stamp})",
        "",
        f"- docs/sec @ num_cpus=8:  {payload['docs_per_sec_8']}",
        f"- docs/sec @ num_cpus=32: {payload['docs_per_sec_32']}",
        f"- speedup 8→32: {payload['speedup']}  (ideal 4.0)",
        f"- scaling efficiency: {payload['value']}  (target ≥ 0.8; "
        f"{payload.get('aggregation', 'best pair')})",
        f"- corpus: {payload['n_docs']} synthetic interleaved docs (sf {payload['sf']})",
    ]
    if payload.get("media"):
        lines.append(f"- media strategy: {payload['media']}")
    if payload.get("all_pairs"):
        lines.append(
            "- interleaved pairs (d/s@8, d/s@32, eff): "
            + "; ".join(f"({a}, {b}, {e})" for a, b, e in payload["all_pairs"])
        )
    if payload.get("gates"):
        lines.append(
            "- per leg (gate busy%, load1, waited_s | steal% ACROSS leg): "
            + "; ".join(
                f"{g['leg']}: ({g['busy_pct']}, {g['load1']}, "
                f"{g['gate_waited_sec']}{'' if g['gated_ok'] else ', TIMEOUT'}"
                f" | {g.get('leg_steal_pct', '?')})"
                for g in payload["gates"]
            )
        )
    lines.append("")
    with open(path, "a") as f:
        f.write("\n".join(lines))


if __name__ == "__main__":
    main()
