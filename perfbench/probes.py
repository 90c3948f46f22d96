"""Layer costs timed from outside: the benchmark calls each public layer
function itself, on the workload's own inputs and outputs, and times it."""
from __future__ import annotations

import os
import shutil
import statistics
import time

MANIFEST_WRITES = 20


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def extract_decision_costs(inputs) -> dict:
    """Seconds extract() spends on its own decisions for these inputs."""
    import ray
    import ray.data

    from my_ocr_ray.pipelines.extract import _auto_salt, load_media_lookup

    salt_s, salt = _timed(_auto_salt, ray.data.read_parquet(inputs.docs_files()))
    lookup_s, _ = _timed(lambda: ray.get(load_media_lookup(inputs.media_files())))
    return {"extract.auto_salt_s": salt_s, "extract.load_media_lookup_s": lookup_s,
            "_salt": salt}


def runner_costs(inputs, job, work_dir: str) -> dict:
    """Per-partition fixed costs of the partitioned runner, from the
    manifests it wrote and from timed calls on one partition."""
    import ray.data

    from my_ocr_ray.pipelines.runner import _distributed_span_metrics, _partition_files
    from my_ocr_ray.state.manifest import read_manifest, write_manifest

    out_dir = job.phases["out_dir"]
    parts = job.phases["partitions"]
    walls = [read_manifest(out_dir, pid)["wall_sec"] for pid in range(parts)]
    files = _partition_files(inputs.docs_dir, parts)[0]
    count_s, _ = _timed(lambda: ray.data.read_parquet(files).count())
    part0 = os.path.join(out_dir, "part=0000")
    outs = sorted(os.path.join(part0, f) for f in os.listdir(part0) if f.endswith(".parquet"))
    metrics_s, metrics = _timed(_distributed_span_metrics, outs)
    scratch = os.path.join(work_dir, "manifest_probe")
    writes = []
    try:
        for i in range(MANIFEST_WRITES):
            dt, _ = _timed(write_manifest, scratch, i, input_files=files, rows_in=metrics["docs"],
                           rows_out=metrics["docs"], metrics=metrics, wall_sec=1.0)
            writes.append(dt)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "runner.count_pass_s": count_s,
        "runner.span_metrics_s": metrics_s,
        "runner.partition_s": statistics.median(walls),
        "runner.resume_s": job.phases["resume_s"],
        "runner.partitions_skipped": job.phases["skipped"],
        "manifest.write_ms": 1000.0 * statistics.median(writes),
    }
