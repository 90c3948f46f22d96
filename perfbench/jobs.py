"""One timed engine job per workload: read -> extract -> parquet written.

Timing covers the whole user-visible call, from building the read to the
last output file written. A tracer, when given, records spans around the
benchmark's own calls into the engine; it adds no code inside the engine.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field


@dataclass
class Job:
    docs: int
    wall_s: float
    out_files: list
    dataset: object = None  # the executed result Dataset (extract jobs)
    phases: dict = field(default_factory=dict)  # runner: named sub-walls
    cpu_s: float = 0.0


class _NoTrace:
    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def _outputs(out_dir: str) -> list[str]:
    found = []
    for base, _, files in os.walk(out_dir):
        found += [os.path.join(base, f) for f in files if f.endswith(".parquet")]
    return sorted(found)


def run_extract(docs_files, media_files, n_docs: int, out_dir: str, media: str,
                tracer=None, limit: int | None = None) -> Job:
    """``media``: "broadcast" (ray.put lookup) or "join" (media Dataset
    shuffle join). ``limit`` keeps
    only the first documents (the untimed warm-up job)."""
    import ray.data

    from my_ocr_ray.pipelines.extract import extract, load_media_lookup

    tr = tracer or _NoTrace()
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("job.read_parquet"):
        ds = ray.data.read_parquet(docs_files)
        if limit is not None:
            ds = ds.limit(limit)
    kwargs = {}
    if media == "broadcast":
        with tr.span("job.load_media_lookup"):
            kwargs["media_lookup_ref"] = load_media_lookup(media_files)
    elif media == "join":
        with tr.span("job.read_media"):
            kwargs["media_ds"] = ray.data.read_parquet(media_files, columns=["media_ref", "bytes"])
    with tr.span("job.extract_plan"):
        result = extract(ds, **kwargs)
    with tr.span("job.execute_write_parquet"):
        result.write_parquet(out_dir)
    wall = time.perf_counter() - t0
    return Job(n_docs, wall, _outputs(out_dir), result)


def run_partitioned(inputs, out_dir: str, partitions: int) -> Job:
    """Interrupted run (half the partitions via ``max_partitions``), then
    the resumed run that completes the rest."""
    from my_ocr_ray.pipelines.runner import run_extract_partitioned

    shutil.rmtree(out_dir, ignore_errors=True)
    media = inputs.media_files()[0]
    t0 = time.perf_counter()
    first = run_extract_partitioned(
        inputs.docs_dir, media, out_dir,
        num_partitions=partitions, max_partitions=partitions // 2,
    )
    t1 = time.perf_counter()
    second = run_extract_partitioned(inputs.docs_dir, media, out_dir, num_partitions=partitions)
    t2 = time.perf_counter()
    if first["processed_now"] != partitions // 2 or second["completed"] != partitions:
        raise RuntimeError(f"runner did not stop and resume as asked: {first} {second}")
    return Job(
        inputs.spec.n_docs, t2 - t0, _outputs(out_dir),
        phases={"interrupted_s": t1 - t0, "resume_s": t2 - t1, "out_dir": out_dir,
                "partitions": partitions,
                "skipped": second["partitions"] - second["processed_now"]},
    )
