"""The flagship extraction pipeline: interleaved docs -> extracted docs.

Ray-Data shape (SURVEY.md §3.1 "RD shape"). Each input row is one whole
document, so by default no exchange is needed — one document-level task
runs the whole row-local chain over a read block; no actor starts:

    read -> map_batches(DocOCRStage(...))  # task: explode -> strip ->
                                           # OCR media + decode pdf spans
                                           # -> rebuild
         -> write_parquet / Dataset

The ``doc_id`` exchange runs only on the ``media_ds`` shuffle join, which
redistributes a document's span rows by ``media_ref``:

    read -> map_batches(explode_spans)            # 1:N fan-out, zero-copy Arrow
         -> map_batches(strip_boilerplate)        # vectorized text routing
         -> join(media_ds, on=media_ref)          # the media shuffle join
         -> map_batches(OCRStage, concurrency=N)  # stateful actor pool (media)
         -> doc_id hash exchange                  # the reassembly shuffle
         -> write_parquet / Dataset

Media strategy:
- ``media_lookup`` (broadcast): ``load_media_lookup`` puts the media table
  and its hash index in the object store once, resolved zero-copy in each
  OCR task call — a map-side hash join against a small build side. Right
  when the media table fits in the object store.
- ``media_join``: hash-join span rows against the media Dataset on
  ``media_ref`` (``Dataset.join``) — the scale path when media bytes are far
  larger than memory. Both paths produce identical results (tested).
"""
from __future__ import annotations

import os
from typing import Optional

import pyarrow.parquet as pq

from ..sizing import (
    actor_pool,
    approx_rows,
    cluster_cpus,
    configure_hash_shuffle,
    hash_partitions,
)
from ..stages.ocrstage import DocOCRStage, OCRStage
from ..stages.reassemble import reassemble_hash
from ..stages.route import explode_spans
from ..stages.textstage import strip_boilerplate


def load_media_lookup(media_path):
    """Read the media table (parquet file / dir / list) and ``ray.put`` it
    as a (media_ref, bytes) Arrow table: the one broadcast lookup form.

    Returns an ObjectRef; every OCR task call resolves it. Broadcasting the
    ARROW TABLE (not a Python dict) matters: ``ray.get`` of an Arrow table is
    zero-copy out of plasma, so the image bytes are shared across all
    workers on a node instead of deserialized per worker. The sorted hash
    index (``_MediaTableLookup.precompute``) is built once, here, and
    travels with the table: workers resolve it zero-copy and rebuild
    nothing.

    The read + index build runs in a detached Ray TASK, not on the driver:
    at 1.6M docs (3.9M media rows, 1.8 GB) the build is ~6s of serial work
    that would otherwise sit on the critical path before the pipeline can
    even start — as a task it overlaps the read, and the OCR tasks block in
    their ``ray.get`` only if they win the race.
    """
    import ray

    @ray.remote(num_cpus=2)
    def _build(files):
        import pyarrow.dataset as pads

        from ..stages.ocrstage import _MediaTableLookup

        tbl = pads.dataset(files, format="parquet").to_table(
            columns=["media_ref", "bytes"]
        )
        return _MediaTableLookup.precompute(tbl.combine_chunks())

    return _build.remote(_parquet_files(media_path))


# average spans per interleaved doc (measured 7.6 on the synthetic corpus);
# used only to size the media join's shuffle, not for correctness
EST_SPANS_PER_DOC = 8

# broadcast the media table only while it fits comfortably next to the
# pipeline's working set: above this fraction of the object store the
# ray.put copy + per-node resolution would crowd out streaming blocks and
# eventually OOM the store — switch to the shuffle join, which never holds
# more than a partition of media bytes at once
MEDIA_BROADCAST_FRACTION = 0.25


def choose_media_strategy(
    media_bytes: Optional[int], object_store_bytes: Optional[int]
) -> str:
    """'broadcast' while the media table fits in ``MEDIA_BROADCAST_FRACTION``
    of the object store, else 'join'. Unknown sizes take the join path — the
    safe default at scale (broadcast of an unbounded table is the one
    failure mode that cannot degrade gracefully)."""
    if media_bytes is None or object_store_bytes is None:
        return "join"
    return (
        "broadcast"
        if media_bytes <= MEDIA_BROADCAST_FRACTION * object_store_bytes
        else "join"
    )


def _parquet_files(paths) -> list:
    """A parquet file, a directory of ``*.parquet`` or a list -> file list."""
    import glob as _glob

    if not isinstance(paths, str):
        return list(paths)
    if os.path.isdir(paths):
        return sorted(_glob.glob(os.path.join(paths, "*.parquet")))
    return [paths]


def estimate_parquet_bytes(paths) -> Optional[int]:
    """Uncompressed byte estimate from parquet footers only (sum of
    row-group ``total_byte_size``) — approximates the in-memory Arrow table
    the broadcast path would pin in plasma. Never reads data pages."""
    try:
        total = 0
        for p in _parquet_files(paths):
            md = pq.ParquetFile(p).metadata
            total += sum(
                md.row_group(i).total_byte_size for i in range(md.num_row_groups)
            )
        return total
    except Exception:
        return None


def resolve_media(media_path) -> dict:
    """``{"media_lookup_ref": ...}`` or ``{"media_ds": ...}`` for a media
    parquet file / dir / list: :func:`choose_media_strategy` picks from the
    table's footer-estimated bytes vs the object store size. The broadcast
    lookup is loaded here, once per call; the join Dataset stays lazy."""
    import ray

    store = (
        ray.cluster_resources().get("object_store_memory")
        if ray.is_initialized()
        else None
    )
    if choose_media_strategy(estimate_parquet_bytes(media_path), store) == "broadcast":
        return {"media_lookup_ref": load_media_lookup(media_path)}
    import ray.data  # noqa: F401 (registers the ray.data namespace)

    return {
        "media_ds": ray.data.read_parquet(
            _parquet_files(media_path), columns=["media_ref", "bytes"]
        )
    }


def _auto_salt(docs_ds) -> None:
    """Always None, without touching ``docs_ds``: the extraction plan never
    salts. Kept only for the benchmark's ``extract.auto_salt_s`` probe, and
    deleted together with that probe; ``extract()`` never calls it."""
    return None


def extract(
    docs_ds,
    media_lookup_ref=None,
    media_ds=None,
    *,
    ocr_batch_size: int = 256,
    on_error: str = "raise",
    ocr_stage_kwargs: Optional[dict] = None,
):
    """Run the full extraction pipeline; returns a documents-schema Dataset.

    Input contract: one row of ``docs_ds`` is one whole document — a
    ``doc_id`` appears in exactly one row, as in the documents schema and
    every generator. The default plan relies on it: a document's span rows
    never leave the task call that produced them.

    Media strategy: pass ``media_lookup_ref`` (broadcast, from
    :func:`load_media_lookup`) or ``media_ds`` (shuffle join);
    ``extract(ds, **resolve_media(path))`` picks one from the media table's
    footer-estimated bytes vs the object store size.

    Plan: with a broadcast lookup the plan is exchange-free
    (``read -> DocOCRStage -> write``) and starts no actor: each
    ``DocOCRStage`` task takes a whole read block, explodes it, strips
    boilerplate, extracts HTML, recognizes media and decodes pdf spans (in
    slices of at most ``ocr_batch_size`` rows) and rebuilds the documents
    once. Only the ``media_ds`` join scatters a document's span rows, so
    only it pays the ``doc_id`` hash exchange. A hot document is one input row like any other and takes the
    plan its media strategy selects.

    Resource fit on the join plan (``my_ocr_ray.sizing``): the OCR actor
    pool, the hash-shuffle aggregators and the join aggregators must all
    fit on the cluster simultaneously or the streaming executor stalls —
    the pool is sized to what's left after reserving for both exchanges'
    aggregators and the IO tasks.

    Shuffle sizing: the partition count (shared by the join and the
    ``doc_id`` exchange) scales with the INPUT SIZE (estimated span rows /
    ``sizing.ROWS_PER_HASH_PARTITION``), floored at one per two CPUs and
    capped at 4x CPUs; the aggregator processes that run those partitions
    follow the rows (``sizing.hash_aggregators``: one per 2M span rows,
    enough that none claims over one CPU). The aggregator CPU claim stays
    a fixed budget (~cpus/8) regardless of partition count by shrinking the
    per-partition claim, so growing data never shrinks the OCR pool. The
    join plan runs on its own copy of ``docs_ds``'s DataContext; the
    caller's is untouched.
    """
    cpus = cluster_cpus()
    if media_ds is None:
        # no step scatters a document's span rows: no doc_id exchange, and
        # no actor: the document step is a callable instance, run as tasks
        # over whole read blocks. The concurrency bound has no engine
        # purpose: it only keeps Ray Data from fusing the read and the write
        # into this operator (it fuses task operators only when their pool
        # sizes are equal), so the benchmark's per-layer operator map
        # (perfbench/opstats.py) finds an operator named for the OCR step.
        # ROADMAP.md item 1, step 0, teaches that map the fused operator
        # and removes the bound
        return docs_ds.map_batches(
            DocOCRStage(
                media_lookup_ref=media_lookup_ref,
                on_error=on_error,
                ocr_batch_size=ocr_batch_size,
                ocr_stage_kwargs=ocr_stage_kwargs,
            ),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
            concurrency=cpus,
        )

    aggregator_cpu_budget = max(1.0, cpus / 8)
    n_docs = approx_rows(docs_ds)
    span_rows = None if n_docs is None else n_docs * EST_SPANS_PER_DOC
    shuffle_partitions = hash_partitions(span_rows, cpus, floor=max(2, cpus // 2))
    spans = docs_ds.map_batches(
        explode_spans,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"with_sentinel": True},
    ).map_batches(strip_boilerplate, batch_format="pyarrow", zero_copy_batch=True)
    # one context for both exchanges (the media_ref join and the doc_id
    # exchange), the plan's own: partitions from the cluster, aggregator
    # processes from rows; the caller's docs_ds keeps its settings
    spans = configure_hash_shuffle(
        spans, shuffle_partitions, aggregator_cpu_budget, rows=span_rows
    )

    # scale path: shuffle join span rows <- media bytes on media_ref.
    # Text spans carry media_ref="" and must not be dropped: left join.
    spans = spans.join(
        media_ds.select_columns(["media_ref", "bytes"]),
        join_type="left_outer",
        num_partitions=shuffle_partitions,
        on=("media_ref",),
    )
    processed = spans.map_batches(
        OCRStage,
        fn_constructor_kwargs={
            "media_lookup_ref": media_lookup_ref,
            "on_error": on_error,
            # stage extension seam (rotation TTA, preprocessor, ...)
            **(ocr_stage_kwargs or {}),
        },
        batch_format="pyarrow",
        batch_size=ocr_batch_size,
        # the IO tasks and both exchanges' aggregators run beside the pool
        concurrency=actor_pool(2 + 2 * aggregator_cpu_budget),
    )

    return reassemble_hash(processed, num_partitions=shuffle_partitions)
