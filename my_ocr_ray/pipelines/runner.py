"""Partitioned, resumable execution of the extraction pipeline.

Partition unit = a group of input parquet files (at cluster scale: input
fragments / key ranges). Each partition runs the full streaming pipeline and
writes its own parquet directory + lineage manifest; a re-run skips completed
partitions (``state.manifest``). Within a partition Ray Data streams with
backpressure; across partitions this loop is the checkpoint boundary.

Per-partition metrics (span-kind counts) are computed as a side aggregate of
the partition's output and stored in the manifest (SURVEY.md §7 stage 6).
"""
from __future__ import annotations

import glob
import os
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import (
    completed_partitions,
    is_complete,
    part_dir,
    write_manifest,
)
from .extract import extract, resolve_media


def _partition_files(input_dir: str, num_partitions: int) -> list[list[str]]:
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_dir}")
    num_partitions = min(num_partitions, len(files))
    groups: list[list[str]] = [[] for _ in range(num_partitions)]
    for i, f in enumerate(files):
        groups[i % num_partitions].append(f)
    return groups


SPAN_KINDS = ("text", "html", "pdf", "media")
METRIC_COLS = ["docs", "spans", *(f"{k}_spans" for k in SPAN_KINDS)]


def _span_metrics(tbl: pa.Table) -> dict:
    kinds = pc.list_flatten(tbl["spans"].combine_chunks()).field("kind")
    counts = {
        vc["values"].as_py(): vc["counts"].as_py() for vc in pc.value_counts(kinds)
    }
    return {
        "docs": tbl.num_rows,
        "spans": len(kinds),
        **{f"{k}_spans": counts.get(k, 0) for k in SPAN_KINDS},
    }


def _metrics_batch(batch: pa.Table) -> pa.Table:
    m = _span_metrics(batch)
    return pa.Table.from_pydict({k: [v] for k, v in m.items()})


def _distributed_span_metrics(files: list[str]) -> dict:
    """Per-kind span counts of a partition's output as a distributed
    aggregate (per-block partials -> tiny sum), never concatenating the
    partition on the driver — a partition at target scale is huge."""
    import ray.data

    if not files:  # the partition wrote no file
        return {c: 0 for c in METRIC_COLS}
    partials = ray.data.read_parquet(files, columns=["spans"]).map_batches(
        _metrics_batch, batch_format="pyarrow"
    )
    sums = partials.sum(METRIC_COLS)
    if sums is None:  # empty partition
        return {c: 0 for c in METRIC_COLS}
    return {c: int(sums[f"sum({c})"]) for c in METRIC_COLS}


def _check_run_config(out_dir: str, num_partitions: int, media_path: str) -> None:
    """Record the run's partition count and media table; resuming with a
    different count would re-partition the input differently and
    double/skip documents, and with a different media table would mix
    outputs from two tables. A RUN.json without a media entry (written
    before it was recorded) checks the count alone."""
    import json

    media = os.path.abspath(media_path)
    path = os.path.join(out_dir, "RUN.json")
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("num_partitions") != num_partitions:
            raise ValueError(
                f"resume with num_partitions={num_partitions} but the run was "
                f"started with {prev.get('num_partitions')} — partition "
                "assignment would not line up; use the original value"
            )
        if prev.get("media_path", media) != media:
            raise ValueError(
                f"resume with media_path={media} but the run was started with "
                f"{prev['media_path']} — outputs would mix two media tables; "
                "use the original path"
            )
        return
    os.makedirs(out_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"num_partitions": num_partitions, "media_path": media}, f)
    os.replace(tmp, path)


def run_extract_partitioned(
    docs_dir: str,
    media_path: str,
    out_dir: str,
    *,
    num_partitions: int = 16,
    max_partitions: int | None = None,
) -> dict:
    """Run all incomplete partitions; returns a summary dict.

    Each partition runs ``extract()`` with its defaults and the media
    strategy :func:`resolve_media` chooses for ``media_path``; it runs
    once, before the partition loop, so a broadcast lookup is loaded once
    per run and an oversized media table takes the shuffle join on every
    partition.

    ``max_partitions`` bounds how many partitions this invocation processes
    (used by the resume test to simulate a mid-job kill).
    """
    import shutil

    import ray.data

    groups = _partition_files(docs_dir, num_partitions)
    _check_run_config(out_dir, len(groups), media_path)
    media = resolve_media(media_path)
    done_before = set(completed_partitions(out_dir))
    processed = 0
    t_start = time.time()
    for pid, files in enumerate(groups):
        if pid in done_before or is_complete(out_dir, pid):
            continue
        if max_partitions is not None and processed >= max_partitions:
            break
        t0 = time.time()
        pdir = part_dir(out_dir, pid)
        if os.path.isdir(pdir):
            # incomplete partition from a killed run: write_parquet appends
            # uuid-named files, so stale orphans would duplicate documents on
            # resume — clear the directory before re-running (the manifest is
            # absent, so nothing completed is lost)
            shutil.rmtree(pdir)
        ds = ray.data.read_parquet(files)
        rows_in = ds.count()
        result = extract(ds, **media)
        os.makedirs(pdir, exist_ok=True)
        result.write_parquet(pdir)
        out_files = sorted(glob.glob(os.path.join(pdir, "*.parquet")))
        metrics = _distributed_span_metrics(out_files)
        write_manifest(
            out_dir,
            pid,
            input_files=files,
            rows_in=rows_in,
            rows_out=metrics["docs"],
            metrics=metrics,
            wall_sec=time.time() - t0,
        )
        processed += 1
    return {
        "partitions": len(groups),
        "completed": len(completed_partitions(out_dir)),
        "processed_now": processed,
        "wall_sec": round(time.time() - t_start, 3),
    }


def read_output(out_dir: str):
    """Read all completed partitions as one Dataset."""
    import ray.data

    files = [
        f
        for pid in completed_partitions(out_dir)
        for f in sorted(glob.glob(os.path.join(part_dir(out_dir, pid), "*.parquet")))
    ]
    return ray.data.read_parquet(files)
