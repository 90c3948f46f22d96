"""The flagship extraction pipeline: interleaved docs -> extracted docs.

Ray-Data shape (SURVEY.md §3.1 "RD shape"). Each input row is one whole
document, so by default no exchange is needed — a document-level actor
recognizes the media spans of a batch of documents, and a stateless task
finishes the rest of the row-local chain on the idle cores:

    read -> map_batches(DocOCRStage, concurrency=N)  # explode -> OCR media
                                                     # spans -> rebuild
         -> map_batches(parse_documents)             # explode -> strip ->
                                                     # pdf -> rebuild (task)
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
- ``media_lookup`` (broadcast): the media side table is ``ray.put`` once and
  read inside each OCR actor's ``__init__`` — a map-side hash join against a
  small build side. Right when the media table fits in the object store.
- ``media_join``: hash-join span rows against the media Dataset on
  ``media_ref`` (``Dataset.join``) — the scale path when media bytes are far
  larger than memory. Both paths produce identical results (tested).
"""
from __future__ import annotations

import os
from typing import Optional

import pyarrow.parquet as pq

from ..sizing import actor_pool, approx_rows, cluster_cpus, hash_partitions
from ..stages.ocrstage import DocOCRStage, OCRStage, parse_documents
from ..stages.reassemble import reassemble_hash
from ..stages.route import explode_spans
from ..stages.textstage import strip_boilerplate


def load_media_lookup(media_path: str):
    """Read the media table and ``ray.put`` it as a (media_ref, bytes) Arrow
    table.

    Returns an ObjectRef; every OCR actor resolves it once. Broadcasting the
    ARROW TABLE (not a Python dict) matters: ``ray.get`` of an Arrow table is
    zero-copy out of plasma, so the image bytes are shared across all actors
    on a node instead of deserialized per actor. The sorted hash index
    (``_MediaTableLookup.precompute``) is built once, here, and travels with
    the table: actors resolve it zero-copy and rebuild nothing.

    The read + index build runs in a detached Ray TASK, not on the driver:
    at 1.6M docs (3.9M media rows, 1.8 GB) the build is ~6s of serial work
    that would otherwise sit on the critical path before the pipeline can
    even start — as a task it overlaps the read/actor-pool ramp-up, and the
    OCR actors block in ``__init__``'s ``ray.get`` only if they win the race.
    """
    import ray

    @ray.remote(num_cpus=2)
    def _build(path):
        if isinstance(path, (list, tuple)) or os.path.isdir(str(path)):
            import pyarrow.dataset as pads

            tbl = pads.dataset(path, format="parquet").to_table(
                columns=["media_ref", "bytes"]
            )
        else:
            tbl = pq.read_table(path, columns=["media_ref", "bytes"])
        from ..stages.ocrstage import _MediaTableLookup

        return _MediaTableLookup.precompute(tbl.combine_chunks())

    return _build.remote(media_path)


# average spans per interleaved doc (measured 7.6 on the synthetic corpus);
# used only to size the shuffle and the document batch of the exchange-free
# path, not for correctness
EST_SPANS_PER_DOC = 8

# broadcast the media table only while it fits comfortably next to the
# pipeline's working set: above this fraction of the object store the
# ray.put copy + per-node resolution would crowd out streaming blocks and
# eventually OOM the store — switch to the shuffle join, which never holds
# more than a partition of media bytes at once
MEDIA_BROADCAST_FRACTION = 0.25


def choose_media_strategy(
    media_bytes: Optional[int],
    object_store_bytes: Optional[int],
    broadcast_fraction: float = MEDIA_BROADCAST_FRACTION,
) -> str:
    """'broadcast' while the media table fits in ``broadcast_fraction`` of
    the object store, else 'join'. Unknown sizes take the join path — the
    safe default at scale (broadcast of an unbounded table is the one
    failure mode that cannot degrade gracefully)."""
    if media_bytes is None or object_store_bytes is None:
        return "join"
    return (
        "broadcast"
        if media_bytes <= broadcast_fraction * object_store_bytes
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
    media_path=None,
    ocr_concurrency: Optional[int] = None,
    ocr_batch_size: int = 256,
    on_error: str = "raise",
    ocr_stage_kwargs: Optional[dict] = None,
):
    """Run the full extraction pipeline; returns a documents-schema Dataset.

    Input contract: one row of ``docs_ds`` is one whole document — a
    ``doc_id`` appears in exactly one row, as in the documents schema and
    every generator. The default plan relies on it: a document's span rows
    never leave the actor call that produced them.

    Media strategy: pass ``media_lookup_ref`` (broadcast) or ``media_ds``
    (shuffle join) to choose explicitly, or ``media_path`` (parquet file /
    dir / list) to let :func:`resolve_media` pick from the table's
    footer-estimated bytes vs the object store size.

    Plan: with a broadcast lookup the plan is exchange-free
    (``read -> DocOCRStage -> parse_documents -> write``): each actor call
    explodes a batch of ``ocr_batch_size // EST_SPANS_PER_DOC`` documents,
    OCRs their media spans (in slices of at most ``ocr_batch_size`` rows)
    and rebuilds them; a stateless task then strips boilerplate, extracts
    HTML, decodes pdf spans and rebuilds again. Ray Data does not fuse an
    actor operator into the task after it, so the task runs beside the
    actor and fuses into the write. Only the
    ``media_ds`` join scatters a document's span rows, so only it pays the
    ``doc_id`` hash exchange. A hot document is one input row like any
    other and takes the plan its media strategy selects.

    Resource auto-sizing (``my_ocr_ray.sizing``): the OCR actor pool, the
    hash-shuffle aggregators and the join aggregators must all fit on the
    cluster simultaneously or the streaming executor stalls — when
    ``ocr_concurrency`` is None it is sized to what's left after reserving
    for shuffles and IO tasks.

    Shuffle sizing: the partition count (shared by the join and the
    ``doc_id`` exchange) scales with the INPUT SIZE (estimated span rows /
    ``sizing.ROWS_PER_HASH_PARTITION``), floored at one per two CPUs and
    capped at 4x CPUs; the aggregator CPU claim stays a fixed budget
    (~cpus/8) regardless of partition count by shrinking the per-partition
    claim, so growing data never shrinks the OCR pool.
    """
    if media_path is not None:
        if media_lookup_ref is not None or media_ds is not None:
            raise ValueError("pass media_path OR media_lookup_ref/media_ds")
        media = resolve_media(media_path)
        media_lookup_ref = media.get("media_lookup_ref")
        media_ds = media.get("media_ds")

    cpus = cluster_cpus()
    aggregator_cpu_budget = max(1.0, cpus / 8)
    if ocr_concurrency is None:
        # kept identical on the exchange-free path: pool sizing is its own
        # decision (a 2-actor pool on 4 CPUs stalled streaming jobs)
        reserve = 2 + aggregator_cpu_budget
        if media_ds is not None:
            reserve += aggregator_cpu_budget
        ocr_concurrency = actor_pool(reserve)
    stage_kwargs = {
        "media_lookup_ref": media_lookup_ref,
        "on_error": on_error,
        # stage extension seam (rotation TTA, preprocessor, ...)
        **(ocr_stage_kwargs or {}),
    }

    if media_ds is None:
        # no step scatters a document's span rows: no doc_id exchange. Only
        # media recognition waits on the actor; the rest runs in a task
        return docs_ds.map_batches(
            DocOCRStage,
            fn_constructor_kwargs={**stage_kwargs, "ocr_batch_size": ocr_batch_size},
            batch_format="pyarrow",
            batch_size=max(1, ocr_batch_size // EST_SPANS_PER_DOC),
            zero_copy_batch=True,
            concurrency=ocr_concurrency,
        ).map_batches(
            parse_documents,
            fn_kwargs={"media_lookup_ref": media_lookup_ref, "on_error": on_error},
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )

    n_docs = approx_rows(docs_ds)
    shuffle_partitions = hash_partitions(
        None if n_docs is None else n_docs * EST_SPANS_PER_DOC,
        cpus,
        floor=max(2, cpus // 2),
    )
    spans = docs_ds.map_batches(
        explode_spans,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"with_sentinel": True},
    ).map_batches(strip_boilerplate, batch_format="pyarrow", zero_copy_batch=True)

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
        fn_constructor_kwargs=stage_kwargs,
        batch_format="pyarrow",
        batch_size=ocr_batch_size,
        concurrency=ocr_concurrency,
    )

    return reassemble_hash(
        processed,
        num_partitions=shuffle_partitions,
        aggregator_cpu_budget=aggregator_cpu_budget,
    )
